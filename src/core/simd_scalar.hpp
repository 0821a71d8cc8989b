// Internal: scalar reference implementations of the SIMD primitives.
//
// These are the equivalence oracles: every vector variant must match them
// bit-for-bit. The vector kernels also call the element helpers for their
// tail elements, so a primitive's tail and body can never disagree.
//
// The approximate-arithmetic helpers mirror approx/approx_arith.cpp
// exactly (LOA: low bits OR'd, high bits added with no carry-in;
// truncated multiplier: partial products below bit `trunc_bits` dropped,
// sign-magnitude). The truncated multiplier uses the closed form
//   |a| * (|b| with low t bits cleared)
//     + (sum over set bits j < min(t, 32) of |b| of |a| >> (t - j)) << t
// which equals the partial-product loop mod 2^64: partial products with
// j >= t pass the column mask untouched and sum to the first term, and
// (|a| << j) >> t = |a| >> (t - j) for the truncated low columns (no
// intermediate overflow since |a| <= 2^31 and j <= 31).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "core/fault.hpp"

namespace icsc::core::simd::scalar_impl {

/// Clamped LOA mask: 0 means "exact adder".
inline std::uint64_t loa_mask(int loa_bits) {
  if (loa_bits <= 0) return 0;
  if (loa_bits > 63) loa_bits = 63;
  return (std::uint64_t{1} << loa_bits) - 1;
}

/// approx::loa_add with the mask precomputed (mask == 0: exact add).
inline std::int64_t loa_add(std::int64_t a, std::int64_t b,
                            std::uint64_t mask) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  if (mask == 0) return static_cast<std::int64_t>(ua + ub);
  const std::uint64_t low = (ua | ub) & mask;
  const std::uint64_t high = (ua & ~mask) + (ub & ~mask);
  return static_cast<std::int64_t>(high | low);
}

/// Precomputed per-weight state for the truncated multiplier: with the
/// weight fixed across a panel row, only |a| varies per element.
struct TruncWeight {
  std::uint64_t hi = 0;      // |w| with the low trunc_bits cleared
  int shifts[32] = {};       // t - j for every set bit j < min(t, 32) of |w|
  int shift_count = 0;
  int trunc = 0;             // clamped truncated_bits (>= 1)
  bool negative = false;     // sign of w
};

inline TruncWeight make_trunc_weight(std::int32_t w, int trunc_bits) {
  TruncWeight tw;
  tw.trunc = trunc_bits > 63 ? 63 : trunc_bits;
  tw.negative = w < 0;
  const auto uw = static_cast<std::uint64_t>(std::llabs(w));
  tw.hi = uw & ~((std::uint64_t{1} << tw.trunc) - 1);
  const int low_bits = tw.trunc < 32 ? tw.trunc : 32;
  for (int j = 0; j < low_bits; ++j) {
    if ((uw >> j) & 1) tw.shifts[tw.shift_count++] = tw.trunc - j;
  }
  return tw;
}

/// approx::truncated_mul(a, w, trunc_bits) via the closed form; requires
/// trunc_bits >= 1 (callers use plain 64-bit multiply otherwise).
inline std::int64_t truncated_mul(std::int32_t a, const TruncWeight& tw) {
  const auto ua = static_cast<std::uint64_t>(std::llabs(a));
  std::uint64_t low = 0;
  for (int k = 0; k < tw.shift_count; ++k) low += ua >> tw.shifts[k];
  const std::uint64_t magnitude = ua * tw.hi + (low << tw.trunc);
  const bool negative = (a < 0) != tw.negative;
  const auto signed_mag = static_cast<std::int64_t>(magnitude);
  return negative ? -signed_mag : signed_mag;
}

inline void axpy_f32_f64(double w, const float* x, double* acc,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += w * static_cast<double>(x[i]);
  }
}

inline void tap_panel_axpy_f32_f64(const float* const* rows,
                                   const double* weights, std::size_t taps,
                                   double* acc, std::size_t n) {
  for (std::size_t t = 0; t < taps; ++t) {
    axpy_f32_f64(weights[t], rows[t], acc, n);
  }
}

inline void panel_axpy_f32(const float* w, const float* x, std::size_t ldx,
                           std::size_t taps, float* acc, std::size_t n) {
  for (std::size_t t = 0; t < taps; ++t) {
    const float* row = x + t * ldx;
    for (std::size_t j = 0; j < n; ++j) acc[j] += w[t] * row[j];
  }
}

inline void quantize_fixed_f32(float* data, std::size_t n, int int_bits,
                               int frac_bits) {
  const double scale = static_cast<double>(std::int64_t{1} << frac_bits);
  const double raw_max =
      static_cast<double>((std::int64_t{1} << (int_bits + frac_bits)) - 1);
  const double raw_min = -raw_max - 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    double scaled = static_cast<double>(data[i]) * scale;
    // Round half away from zero, then clamp to the representable raw range.
    scaled =
        scaled >= 0.0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
    scaled = std::clamp(scaled, raw_min, raw_max);
    data[i] = static_cast<float>(scaled / scale);
  }
}

inline void qtap_exact(const std::int32_t* x, std::int32_t w, int loa_bits,
                       std::int64_t* acc, std::size_t n) {
  const std::uint64_t mask = loa_mask(loa_bits);
  const auto w64 = static_cast<std::int64_t>(w);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = loa_add(acc[i], static_cast<std::int64_t>(x[i]) * w64, mask);
  }
}

inline void qtap_truncated(const std::int32_t* x, std::int32_t w,
                           int trunc_bits, int loa_bits, std::int64_t* acc,
                           std::size_t n) {
  if (trunc_bits <= 0) {
    qtap_exact(x, w, loa_bits, acc, n);
    return;
  }
  const std::uint64_t mask = loa_mask(loa_bits);
  const TruncWeight tw = make_trunc_weight(w, trunc_bits);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = loa_add(acc[i], truncated_mul(x[i], tw), mask);
  }
}

/// madd_panel_i16 over columns [begin, end): exact int64 sums, no flush
/// needed. The oracle runs it over every column; the vector paths over
/// their tail.
inline void madd_columns_i16(const std::int16_t* const* rows,
                             const std::int16_t* w, std::size_t taps,
                             std::size_t outs, std::int64_t* acc,
                             std::size_t ld, std::size_t begin,
                             std::size_t end) {
  for (std::size_t o = 0; o < outs; ++o) {
    const std::int16_t* wo = w + 2 * o * taps;
    std::int64_t* ao = acc + o * ld;
    for (std::size_t t = 0; t < taps; ++t) {
      const std::int64_t lo = wo[2 * t];
      const std::int64_t hi = wo[2 * t + 1];
      const std::int16_t* x = rows[t];
      for (std::size_t c = begin; c < end; ++c) {
        ao[c] += x[2 * c] * lo + x[2 * c + 1] * hi;
      }
    }
  }
}

inline void madd_panel_i16(const std::int16_t* const* rows,
                           const std::int16_t* w, std::size_t taps,
                           std::size_t outs, std::size_t /*flush_taps*/,
                           std::int64_t* acc, std::size_t ld, std::size_t n) {
  madd_columns_i16(rows, w, taps, outs, acc, ld, 0, n);
}

/// One requantize_pair_q16 value: the f64 conv epilogue and
/// quantize_fixed_f32 on one exact sum, returned as the raw grid value.
inline std::int16_t requantize_q16(std::int64_t acc, double scale, bool relu,
                                   double act_scale, double raw_min,
                                   double raw_max) {
  double a = static_cast<double>(acc) * scale;
  if (relu) a = std::max(0.0, a);
  double s = static_cast<double>(static_cast<float>(a)) * act_scale;
  s = s >= 0.0 ? std::floor(s + 0.5) : std::ceil(s - 0.5);
  return static_cast<std::int16_t>(std::clamp(s, raw_min, raw_max));
}

inline int requantize_pair_q16(const std::int64_t* lo, const std::int64_t* hi,
                               std::size_t n, double scale, bool relu,
                               int int_bits, int frac_bits,
                               std::int16_t* out) {
  const double act_scale = static_cast<double>(std::int64_t{1} << frac_bits);
  const double raw_max =
      static_cast<double>((std::int64_t{1} << (int_bits + frac_bits)) - 1);
  int peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int16_t a = requantize_q16(lo[i], scale, relu, act_scale,
                                          -raw_max - 1.0, raw_max);
    const std::int16_t b =
        hi != nullptr ? requantize_q16(hi[i], scale, relu, act_scale,
                                       -raw_max - 1.0, raw_max)
                      : std::int16_t{0};
    out[2 * i] = a;
    out[2 * i + 1] = b;
    peak = std::max({peak, std::abs(int{a}), std::abs(int{b})});
  }
  return peak;
}

/// Constants of normal_pairs (core/simd.hpp states the contract).
namespace normal {

inline constexpr double kSqrt2 = 1.4142135623730951;
/// fdlibm's split of ln 2: kLn2Hi has 32 significant bits, so e * kLn2Hi
/// is exact for every exponent |e| <= 32 the log sees.
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// atanh(s) / s = sum over i of s^(2i) / (2i + 1), highest term first.
inline constexpr double kAtanh[10] = {
    1.0 / 19, 1.0 / 17, 1.0 / 15, 1.0 / 13, 1.0 / 11,
    1.0 / 9,  1.0 / 7,  1.0 / 5,  1.0 / 3,  1.0};
/// (sin(x) - x) / x^3 and (cos(x) - 1) / x^2 as Taylor polynomials in x^2,
/// highest term first (x^17 and x^16).
inline constexpr double kSin[8] = {
    1.0 / 355687428096000.0, -1.0 / 1307674368000.0, 1.0 / 6227020800.0,
    -1.0 / 39916800.0,       1.0 / 362880.0,          -1.0 / 5040.0,
    1.0 / 120.0,             -1.0 / 6.0};
inline constexpr double kCos[8] = {
    1.0 / 20922789888000.0, -1.0 / 87178291200.0, 1.0 / 479001600.0,
    -1.0 / 3628800.0,       1.0 / 40320.0,        -1.0 / 720.0,
    1.0 / 24.0,             -1.0 / 2.0};
/// pi/2 over the 2^30 angle steps of one quadrant (a power-of-two scaling
/// of pi, so exact).
inline constexpr double kAngleStep = 3.141592653589793 * 0x1p-31;

template <std::size_t N>
inline double horner(double x, const double (&c)[N]) {
  double p = c[0];
  for (std::size_t i = 1; i < N; ++i) p = p * x + c[i];
  return p;
}

/// ln(k * 2^-32) for k in [1, 2^32]: k = m * 2^e with m in [sqrt(1/2),
/// sqrt(2)), ln m = 2 atanh((m - 1) / (m + 1)).
inline double log_u32_unit(std::uint64_t k) {
  const auto bits = std::bit_cast<std::uint64_t>(static_cast<double>(k));
  double e = static_cast<double>(bits >> 52) - 1055.0;  // 1023 bias + 32
  double m = std::bit_cast<double>((bits & 0x000F'FFFF'FFFF'FFFFULL) |
                                   0x3FF0'0000'0000'0000ULL);
  if (m >= kSqrt2) {
    m = m * 0.5;
    e = e + 1.0;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double p = horner(s * s, kAtanh);
  return e * kLn2Hi + (e * kLn2Lo + (s + s) * p);
}

/// (cos, sin) of q * pi/2 + phi for the angle word `lo` (quadrant q in its
/// top 2 bits, phi from its low 30).
inline void sincos_u32(std::uint32_t lo, double& c, double& s) {
  const double phi =
      (static_cast<double>(lo & 0x3FFF'FFFFU) - 0x1p29 + 0.5) * kAngleStep;
  const double x2 = phi * phi;
  const double sin_phi = phi + (phi * x2) * horner(x2, kSin);
  const double cos_phi = 1.0 + x2 * horner(x2, kCos);
  const std::uint32_t q = lo >> 30;
  c = (q & 1) != 0 ? sin_phi : cos_phi;
  s = (q & 1) != 0 ? cos_phi : sin_phi;
  if (((q ^ (q >> 1)) & 1) != 0) c = -c;
  if ((q >> 1) != 0) s = -s;
}

}  // namespace normal

inline void normal_pairs(std::uint64_t key, std::uint64_t first,
                         std::size_t count, double* z0, double* z1) {
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint64_t h = fault_hash(key, first + j);
    const double r = std::sqrt(-2.0 * normal::log_u32_unit((h >> 32) + 1));
    double c;
    double s;
    normal::sincos_u32(static_cast<std::uint32_t>(h), c, s);
    z0[j] = r * c;
    z1[j] = r * s;
  }
}

inline std::uint32_t l1_distance_u16(const std::uint16_t* a,
                                     const std::uint16_t* b, std::size_t n) {
  std::uint32_t l1 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    l1 += static_cast<std::uint32_t>(a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
  }
  return l1;
}

/// One-text banded Myers over a prebuilt peq table: a verbatim port of
/// hetero::dna::levenshtein_myers_banded past its peq construction.
inline int myers_banded_one(const std::uint64_t* peq, std::size_t blocks,
                            std::size_t pattern_len, const std::uint8_t* text,
                            std::size_t text_len, int band,
                            std::uint64_t* pv, std::uint64_t* mv) {
  const auto n = static_cast<int>(pattern_len);
  const auto m = static_cast<int>(text_len);
  if ((n > m ? n - m : m - n) > band) return band + 1;
  if (n == 0 || m == 0) return n > m ? n : m;

  constexpr int kWord = 64;
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    pv[blk] = ~std::uint64_t{0};
    mv[blk] = 0;
  }
  const std::size_t last = blocks - 1;
  const std::uint64_t score_bit = std::uint64_t{1}
                                  << ((pattern_len - 1) % kWord);
  int score = n;

  for (int j = 0; j < m; ++j) {
    const std::uint8_t tc = text[static_cast<std::size_t>(j)];
    int hin = 1;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      std::uint64_t eq = peq[blk * 4 + tc];
      const std::uint64_t pv_b = pv[blk];
      const std::uint64_t mv_b = mv[blk];
      const std::uint64_t xv = eq | mv_b;
      if (hin < 0) eq |= 1;
      const std::uint64_t xh = (((eq & pv_b) + pv_b) ^ pv_b) | eq;
      std::uint64_t ph = mv_b | ~(xh | pv_b);
      std::uint64_t mh = pv_b & xh;

      int hout = 0;
      const std::uint64_t out_bit =
          blk == last ? score_bit : std::uint64_t{1} << (kWord - 1);
      if (ph & out_bit) hout = 1;
      if (mh & out_bit) hout = -1;

      ph <<= 1;
      mh <<= 1;
      if (hin < 0) {
        mh |= 1;
      } else if (hin > 0) {
        ph |= 1;
      }
      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    score += hin;
    const int remaining = m - 1 - j;
    if (score - remaining > band) return band + 1;
  }
  return score <= band ? score : band + 1;
}

void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,
                        std::size_t pattern_len,
                        const std::uint8_t* const* texts,
                        const std::size_t* text_lens, std::size_t count,
                        int band, int* out);

}  // namespace icsc::core::simd::scalar_impl
