// Runtime SIMD dispatch layer: ISA resolution/override semantics and
// randomized bit-equivalence of every vector primitive against the scalar
// oracle, swept across every ISA this CPU supports (including deliberately
// awkward odd sizes so the tail paths execute).
#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <vector>

#include "approx/approx_arith.hpp"
#include "core/aligned.hpp"
#include "core/rng.hpp"
#include "core/simd_scalar.hpp"
#include "core/tensor.hpp"
#include "hetero/dna/edit_distance.hpp"

namespace icsc::core::simd {
namespace {

std::vector<Isa> supported_isas() {
  std::vector<Isa> isas{Isa::kScalar};
  for (const Isa isa : {Isa::kSse4, Isa::kAvx2, Isa::kNeon}) {
    if (isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Restores the auto-detected ISA when a sweep finishes (tests in one
/// binary share the dispatch state).
struct IsaGuard {
  ~IsaGuard() { set_active_isa(detected_isa()); }
};

// Sizes that exercise full vectors, tails of every width, and emptiness.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 67};

TEST(SimdDispatch, ScalarAlwaysSupportedAndDetectedIsSupported) {
  EXPECT_TRUE(isa_supported(Isa::kScalar));
  EXPECT_TRUE(isa_supported(detected_isa()));
}

TEST(SimdDispatch, IsaNamesMatchEnvTokens) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kSse4), "sse4");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::kNeon), "neon");
}

TEST(SimdDispatch, ResolveHonorsKnownSupportedTokens) {
  EXPECT_EQ(resolve_isa("scalar"), Isa::kScalar);
  for (const Isa isa : supported_isas()) {
    EXPECT_EQ(resolve_isa(isa_name(isa)), isa);
  }
}

TEST(SimdDispatch, ResolveFallsBackToDetectedOnUnknownOrMissing) {
  EXPECT_EQ(resolve_isa(nullptr), detected_isa());
  EXPECT_EQ(resolve_isa(""), detected_isa());
  EXPECT_EQ(resolve_isa("auto"), detected_isa());
  EXPECT_EQ(resolve_isa("avx512"), detected_isa());
  EXPECT_EQ(resolve_isa("AVX2"), detected_isa());  // tokens are lowercase
}

TEST(SimdDispatch, ResolveClampsUnsupportedRequestsToDetected) {
  // Whatever this machine is, at least one named ISA is foreign to it.
  for (const Isa isa : {Isa::kSse4, Isa::kAvx2, Isa::kNeon}) {
    if (!isa_supported(isa)) {
      EXPECT_EQ(resolve_isa(isa_name(isa)), detected_isa());
    }
  }
}

TEST(SimdDispatch, SetActiveClampsToSupported) {
  IsaGuard guard;
  for (const Isa isa : {Isa::kScalar, Isa::kSse4, Isa::kAvx2, Isa::kNeon}) {
    const Isa applied = set_active_isa(isa);
    EXPECT_TRUE(isa_supported(applied));
    EXPECT_EQ(applied, isa_supported(isa) ? isa : detected_isa());
    EXPECT_EQ(active_isa(), applied);
  }
}

TEST(SimdDispatch, CpuFeaturesNonEmpty) {
  EXPECT_FALSE(cpu_features().empty());
}

TEST(AlignedAllocation, VectorsAndTensorsAre64ByteAligned) {
  for (const std::size_t n : kSizes) {
    if (n == 0) continue;
    aligned_vector<double> v(n);
    EXPECT_TRUE(is_aligned(v.data())) << n;
    Tensor<float> t({n, 3});
    EXPECT_TRUE(is_aligned(t.data().data())) << n;
  }
}

TEST(SimdEquivalence, AxpyF32F64MatchesScalarBitwise) {
  IsaGuard guard;
  Rng rng(101);
  for (const std::size_t n : kSizes) {
    std::vector<float> x(n);
    std::vector<double> acc0(n);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    for (auto& v : acc0) v = rng.uniform(-10.0, 10.0);
    const double w = rng.uniform(-3.0, 3.0);

    std::vector<double> want = acc0;
    for (std::size_t i = 0; i < n; ++i) {
      want[i] += w * static_cast<double>(x[i]);
    }
    for (const Isa isa : supported_isas()) {
      set_active_isa(isa);
      std::vector<double> acc = acc0;
      axpy_f32_f64(w, x.data(), acc.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(want[i], acc[i]) << isa_name(isa) << " n=" << n << " i=" << i;
      }
    }
  }
}

/// Uniform in [-limit, limit], except for the IEEE corner cases: one draw
/// in 32 is a signed zero or a subnormal, and one in 32 an infinity or a
/// NaN.
template <typename T>
T value_or_corner(Rng& rng, double limit) {
  using Limits = std::numeric_limits<T>;
  const T sign = rng.below(2) ? T(1) : T(-1);
  switch (rng.below(64)) {
    case 0: return sign * Limits::infinity();
    case 1: return Limits::quiet_NaN();
    case 2: return sign * T(0);
    case 3:
      return sign * Limits::denorm_min() * static_cast<T>(1 + rng.below(4096));
    default: return static_cast<T>(rng.uniform(-limit, limit));
  }
}

/// Bitwise equality, except that any NaN matches any NaN: a NaN's payload
/// depends on which operand the hardware propagates, which the scalar
/// compiler is free to swap.
template <typename T>
bool same_bits(T a, T b) {
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<Bits>(a) == std::bit_cast<Bits>(b);
}

// Four full tiles of the widest ISA plus three tail elements: AVX2 holds
// 8 f32 and 4 f64 lanes, and the panel kernels tile 4 vectors wide.
constexpr std::size_t kMaxF32Width = 4 * 8 + 3;
constexpr std::size_t kMaxF64Width = 4 * 4 + 3;

TEST(SimdEquivalence, PanelAxpyF32MatchesScalarBitwise) {
  IsaGuard guard;
  Rng rng(108);
  for (std::size_t n = 0; n <= kMaxF32Width; ++n) {
    for (std::size_t taps = 0; taps <= 9; ++taps) {
      for (const std::size_t pad : {std::size_t{0}, std::size_t{5}}) {
        const std::size_t ldx = n + pad;  // strided rows when pad > 0
        std::vector<float> w(taps), x(taps * ldx), acc0(n);
        for (auto& v : w) v = value_or_corner<float>(rng, 3.0);
        for (auto& v : x) v = value_or_corner<float>(rng, 2.0);
        for (auto& v : acc0) v = value_or_corner<float>(rng, 10.0);

        std::vector<float> want = acc0;
        for (std::size_t t = 0; t < taps; ++t) {
          for (std::size_t j = 0; j < n; ++j) {
            want[j] += w[t] * x[t * ldx + j];
          }
        }
        for (const Isa isa : supported_isas()) {
          set_active_isa(isa);
          std::vector<float> acc = acc0;
          panel_axpy_f32(w.data(), x.data(), ldx, taps, acc.data(), n);
          for (std::size_t j = 0; j < n; ++j) {
            EXPECT_TRUE(same_bits(want[j], acc[j]))
                << isa_name(isa) << " n=" << n << " taps=" << taps
                << " ldx=" << ldx << " j=" << j << ": " << want[j] << " vs "
                << acc[j];
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, TapPanelAxpyF32F64MatchesScalarBitwise) {
  IsaGuard guard;
  Rng rng(109);
  for (std::size_t n = 0; n <= kMaxF64Width; ++n) {
    for (std::size_t taps = 0; taps <= 9; ++taps) {
      for (const std::size_t pad : {std::size_t{0}, std::size_t{3}}) {
        const std::size_t stride = n + pad;  // strided rows when pad > 0
        std::vector<float> panel(taps * stride);
        std::vector<const float*> rows(taps);
        std::vector<double> weights(taps), acc0(n);
        for (auto& v : panel) v = value_or_corner<float>(rng, 2.0);
        for (std::size_t t = 0; t < taps; ++t) {
          rows[t] = panel.data() + t * stride;
        }
        for (auto& v : weights) v = value_or_corner<double>(rng, 3.0);
        for (auto& v : acc0) v = value_or_corner<double>(rng, 10.0);

        std::vector<double> want = acc0;
        for (std::size_t t = 0; t < taps; ++t) {
          for (std::size_t c = 0; c < n; ++c) {
            want[c] += weights[t] * static_cast<double>(rows[t][c]);
          }
        }
        for (const Isa isa : supported_isas()) {
          set_active_isa(isa);
          std::vector<double> acc = acc0;
          tap_panel_axpy_f32_f64(rows.data(), weights.data(), taps,
                                 acc.data(), n);
          for (std::size_t c = 0; c < n; ++c) {
            EXPECT_TRUE(same_bits(want[c], acc[c]))
                << isa_name(isa) << " n=" << n << " taps=" << taps
                << " stride=" << stride << " c=" << c << ": " << want[c]
                << " vs " << acc[c];
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, QuantizeFixedF32MatchesScalarBitwise) {
  IsaGuard guard;
  Rng rng(107);
  for (const std::size_t n : kSizes) {
    for (const auto& [int_bits, frac_bits] : {std::pair{7, 8}, {3, 12},
                                              {1, 2}, {15, 0}}) {
      std::vector<float> x0(n);
      const double limit =
          static_cast<double>(std::int64_t{1} << int_bits) + 2.0;
      for (std::size_t i = 0; i < n; ++i) {
        // Mix of in-range values, saturating magnitudes, exact halves (the
        // round-half-away-from-zero boundary) and signed zero.
        switch (rng.below(6)) {
          case 0:
            x0[i] = static_cast<float>(limit * 4.0);  // clamps to raw_max
            break;
          case 1:
            x0[i] = static_cast<float>(-limit * 4.0);  // clamps to raw_min
            break;
          case 2: {
            const double step = 1.0 / static_cast<double>(
                                          std::int64_t{1} << frac_bits);
            x0[i] = static_cast<float>(
                (static_cast<double>(rng.below(41)) - 20.0 + 0.5) * step);
            break;
          }
          case 3:
            x0[i] = rng.below(2) ? 0.0f : -0.0f;
            break;
          default:
            x0[i] = static_cast<float>(rng.uniform(-limit, limit));
            break;
        }
      }
      set_active_isa(Isa::kScalar);
      std::vector<float> want = x0;
      quantize_fixed_f32(want.data(), n, int_bits, frac_bits);
      for (const Isa isa : supported_isas()) {
        set_active_isa(isa);
        std::vector<float> got = x0;
        quantize_fixed_f32(got.data(), n, int_bits, frac_bits);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(want[i], got[i])
              << isa_name(isa) << " n=" << n << " q" << int_bits << "."
              << frac_bits << " x=" << x0[i];
        }
      }
    }
  }
}

std::int32_t random_i32(Rng& rng) {
  // Mix of small activations and extreme corners (INT32_MIN included).
  switch (rng.below(8)) {
    case 0: return std::numeric_limits<std::int32_t>::min();
    case 1: return std::numeric_limits<std::int32_t>::max();
    case 2: return 0;
    default:
      return static_cast<std::int32_t>(
          static_cast<std::int64_t>(rng()) % 200001 - 100000);
  }
}

TEST(SimdEquivalence, QtapExactMatchesApproxOperatorChain) {
  IsaGuard guard;
  Rng rng(103);
  for (const std::size_t n : kSizes) {
    for (const int loa_bits : {0, 4, 12, 63}) {
      std::vector<std::int32_t> x(n);
      std::vector<std::int64_t> acc0(n);
      for (auto& v : x) v = random_i32(rng);
      for (auto& v : acc0) v = static_cast<std::int64_t>(rng());
      const std::int32_t w = random_i32(rng);

      std::vector<std::int64_t> want = acc0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t term = static_cast<std::int64_t>(x[i]) * w;
        want[i] = loa_bits > 0 ? approx::loa_add(want[i], term, loa_bits)
                               : static_cast<std::int64_t>(
                                     static_cast<std::uint64_t>(want[i]) +
                                     static_cast<std::uint64_t>(term));
      }
      for (const Isa isa : supported_isas()) {
        set_active_isa(isa);
        std::vector<std::int64_t> acc = acc0;
        qtap_exact(x.data(), w, loa_bits, acc.data(), n);
        EXPECT_EQ(want, acc) << isa_name(isa) << " n=" << n
                             << " loa=" << loa_bits;
      }
    }
  }
}

TEST(SimdEquivalence, QtapTruncatedMatchesApproxOperatorChain) {
  IsaGuard guard;
  Rng rng(104);
  for (const std::size_t n : kSizes) {
    for (const int trunc_bits : {0, 1, 8, 16, 31, 40}) {
      for (const int loa_bits : {0, 8}) {
        std::vector<std::int32_t> x(n);
        std::vector<std::int64_t> acc0(n);
        for (auto& v : x) v = random_i32(rng);
        for (auto& v : acc0) v = static_cast<std::int64_t>(rng());
        const std::int32_t w = random_i32(rng);

        std::vector<std::int64_t> want = acc0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t term =
              trunc_bits > 0 ? approx::truncated_mul(x[i], w, trunc_bits)
                             : static_cast<std::int64_t>(x[i]) * w;
          want[i] = loa_bits > 0 ? approx::loa_add(want[i], term, loa_bits)
                                 : static_cast<std::int64_t>(
                                       static_cast<std::uint64_t>(want[i]) +
                                       static_cast<std::uint64_t>(term));
        }
        for (const Isa isa : supported_isas()) {
          set_active_isa(isa);
          std::vector<std::int64_t> acc = acc0;
          qtap_truncated(x.data(), w, trunc_bits, loa_bits, acc.data(), n);
          EXPECT_EQ(want, acc) << isa_name(isa) << " n=" << n
                               << " trunc=" << trunc_bits
                               << " loa=" << loa_bits;
        }
      }
    }
  }
}

/// The flush interval madd_panel_i16's contract allows: the most taps
/// whose int32 partial sums cannot overflow, given the operand bounds.
std::size_t madd_flush_bound(std::int64_t max_x, std::int64_t max_w) {
  const std::int64_t per_tap = 2 * max_x * max_w;
  return per_tap == 0 ? 1000 : static_cast<std::size_t>(INT32_MAX / per_tap);
}

TEST(SimdEquivalence, MaddPanelI16MatchesExactSums) {
  IsaGuard guard;
  Rng rng(106);
  // Operand classes: FSRCNN-sized values (a long flush interval), the full
  // int16 range, and the extremes +-32767 and -32768, for which the bound
  // allows one tap per flush (-32768 never meets -32768: 2 * 2^30 = 2^31
  // would overflow pmaddwd itself).
  const auto draw = [&rng](int mode, bool weight) -> std::int16_t {
    switch (mode) {
      case 0:
        return static_cast<std::int16_t>(
            static_cast<int>(rng.below(weight ? 8193 : 601)) -
            (weight ? 4096 : 300));
      case 1:
        return static_cast<std::int16_t>(
            static_cast<int>(rng.below(65535)) - 32767);
      default: {
        const std::int16_t edges[3] = {32767, -32767, -32768};
        // Mode 2 puts -32768 in the activations, mode 3 in the weights.
        const bool with_min = (mode == 2) != weight;
        return edges[rng.below(with_min ? 3 : 2)];
      }
    }
  };
  constexpr std::size_t kMaxCols = 2 * 8 + 8;  // AVX2 tile + vector + tail
  for (const int mode : {0, 1, 2, 3}) {
    for (std::size_t outs = 1; outs <= kMaddMaxOuts; ++outs) {
      for (std::size_t n = 0; n <= kMaxCols; ++n) {
        const std::size_t taps = 1 + rng.below(9);
        std::vector<std::vector<std::int16_t>> x(
            taps, std::vector<std::int16_t>(2 * n));
        std::vector<std::int16_t> w(2 * outs * taps);
        std::int64_t max_x = 0;
        std::int64_t max_w = 0;
        for (auto& row : x) {
          for (auto& v : row) {
            v = draw(mode, false);
            max_x = std::max<std::int64_t>(max_x, std::abs(int{v}));
          }
        }
        for (auto& v : w) {
          v = draw(mode, true);
          max_w = std::max<std::int64_t>(max_w, std::abs(int{v}));
        }
        std::vector<const std::int16_t*> rows;
        for (const auto& row : x) rows.push_back(row.data());
        const std::size_t ld = n + 3;  // padding the primitive must not touch
        std::vector<std::int64_t> acc0(outs * ld);
        for (auto& v : acc0) {
          v = static_cast<std::int64_t>(rng.below(1ULL << 41)) - (1LL << 40);
        }
        std::vector<std::int64_t> want = acc0;
        for (std::size_t o = 0; o < outs; ++o) {
          for (std::size_t t = 0; t < taps; ++t) {
            for (std::size_t c = 0; c < n; ++c) {
              want[o * ld + c] +=
                  std::int64_t{x[t][2 * c]} * w[2 * (o * taps + t)] +
                  std::int64_t{x[t][2 * c + 1]} * w[2 * (o * taps + t) + 1];
            }
          }
        }
        const std::size_t bound = madd_flush_bound(max_x, max_w);
        ASSERT_GE(bound, 1u);
        // Every legal interval; taps that are a multiple of it end with a
        // flush on the last tap.
        for (const std::size_t flush : {std::size_t{1}, taps, bound}) {
          if (flush > bound) continue;
          for (const Isa isa : supported_isas()) {
            set_active_isa(isa);
            std::vector<std::int64_t> acc = acc0;
            madd_panel_i16(rows.data(), w.data(), taps, outs, flush,
                           acc.data(), ld, n);
            EXPECT_EQ(want, acc) << isa_name(isa) << " mode=" << mode
                                 << " outs=" << outs << " n=" << n
                                 << " taps=" << taps << " flush=" << flush;
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, RequantizePairQ16MatchesEpilogueThenQuantizer) {
  // Oracle: the f64 conv epilogue (sum * scale, ReLU, round to float)
  // followed by quantize_fixed_f32, read back as a raw grid value. Sums
  // span small values, the exact-float range edge 2^24, values that clamp
  // and the 2^51 limit; the formats include the int16 extremes.
  IsaGuard guard;
  Rng rng(107);
  struct Format {
    int int_bits, frac_bits, acc_frac_bits;
  };
  const Format formats[] = {{7, 8, 20}, {0, 15, 27}, {15, 0, 0}, {3, 5, 9}};
  for (const Format& f : formats) {
    const double scale = std::ldexp(1.0, -f.acc_frac_bits);
    for (const bool relu : {false, true}) {
      for (std::size_t n = 0; n <= 19; ++n) {
        std::vector<std::int64_t> lo(n), hi(n);
        for (auto* v : {&lo, &hi}) {
          for (auto& x : *v) {
            const int bits = static_cast<int>(rng.below(52));
            const auto mag = static_cast<std::int64_t>(
                rng.below(std::uint64_t{1} << bits));
            x = rng.below(2) ? -mag : mag;
          }
        }
        if (n > 0) lo[0] = (std::int64_t{1} << 51) - 1;
        if (n > 1) hi[1] = -(std::int64_t{1} << 51);
        const auto oracle = [&](std::int64_t acc) {
          double a = static_cast<double>(acc) * scale;
          if (relu) a = std::max(0.0, a);
          float v = static_cast<float>(a);
          quantize_fixed_f32(&v, 1, f.int_bits, f.frac_bits);
          return static_cast<int>(std::ldexp(double{v}, f.frac_bits));
        };
        for (const bool pair : {false, true}) {
          std::vector<std::int16_t> want(2 * n);
          int want_peak = 0;
          for (std::size_t i = 0; i < n; ++i) {
            want[2 * i] = static_cast<std::int16_t>(oracle(lo[i]));
            want[2 * i + 1] =
                pair ? static_cast<std::int16_t>(oracle(hi[i])) : 0;
            want_peak = std::max({want_peak, std::abs(int{want[2 * i]}),
                                  std::abs(int{want[2 * i + 1]})});
          }
          for (const Isa isa : supported_isas()) {
            set_active_isa(isa);
            std::vector<std::int16_t> out(2 * n, 7);
            const int peak = requantize_pair_q16(
                lo.data(), pair ? hi.data() : nullptr, n, scale, relu,
                f.int_bits, f.frac_bits, out.data());
            EXPECT_EQ(want, out) << isa_name(isa) << " n=" << n
                                 << " relu=" << relu << " pair=" << pair
                                 << " frac=" << f.frac_bits;
            EXPECT_EQ(want_peak, peak) << isa_name(isa) << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, L1DistanceU16MatchesScalar) {
  IsaGuard guard;
  Rng rng(105);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{17}, std::size_t{64},
                              std::size_t{255}, std::size_t{256},
                              std::size_t{300}}) {
    std::vector<std::uint16_t> a(n), b(n);
    for (auto& v : a) v = static_cast<std::uint16_t>(rng.below(65536));
    for (auto& v : b) v = static_cast<std::uint16_t>(rng.below(65536));

    std::uint32_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      want += static_cast<std::uint32_t>(a[i] > b[i] ? a[i] - b[i]
                                                     : b[i] - a[i]);
    }
    for (const Isa isa : supported_isas()) {
      set_active_isa(isa);
      EXPECT_EQ(want, l1_distance_u16(a.data(), b.data(), n))
          << isa_name(isa) << " n=" << n;
    }
  }
}

// --- Batched banded Myers vs the independent banded-DP oracle -----------

hetero::dna::Strand random_strand(Rng& rng, std::size_t len) {
  hetero::dna::Strand s(len);
  for (auto& b : s) b = static_cast<hetero::dna::Base>(rng.below(4));
  return s;
}

/// Mutates `s` with ~`edits` random substitutions/indels, so text lengths
/// and distances cluster around the band boundary.
hetero::dna::Strand mutate(Rng& rng, const hetero::dna::Strand& s, int edits) {
  hetero::dna::Strand out = s;
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng.below(out.size());
    switch (rng.below(3)) {
      case 0:
        out[pos] = static_cast<hetero::dna::Base>(rng.below(4));
        break;
      case 1:
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      default:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<hetero::dna::Base>(rng.below(4)));
        break;
    }
  }
  return out;
}

TEST(SimdEquivalence, MyersBandedBatchMatchesBandedDpOracle) {
  namespace dna = hetero::dna;
  IsaGuard guard;
  Rng rng(106);
  // Pattern lengths straddling the 64-bit block boundaries.
  for (const std::size_t plen : {std::size_t{1}, std::size_t{9},
                                 std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{130}}) {
    const auto pattern_strand = random_strand(rng, plen);
    const dna::MyersPattern pattern(pattern_strand);
    for (const int band : {0, 1, 3, 8}) {
      // A lane group and a half, plus stragglers: exercises partial tails.
      std::vector<dna::Strand> texts;
      for (int t = 0; t < 11; ++t) {
        texts.push_back(mutate(rng, pattern_strand, rng.below(2 * band + 3)));
      }
      texts.push_back(dna::Strand{});                        // empty text
      texts.push_back(random_strand(rng, plen + band + 10)); // length screen
      std::vector<const dna::Strand*> ptrs;
      for (const auto& t : texts) ptrs.push_back(&t);

      // Two independent oracles: the scalar banded Myers kernel and the
      // classic banded DP, which agree under the banded contract.
      std::vector<int> want(texts.size());
      for (std::size_t t = 0; t < texts.size(); ++t) {
        want[t] = dna::levenshtein_myers_banded(pattern_strand, texts[t], band);
        EXPECT_EQ(want[t],
                  dna::levenshtein_banded(pattern_strand, texts[t], band));
      }
      for (const Isa isa : supported_isas()) {
        set_active_isa(isa);
        std::vector<int> got(texts.size(), -1);
        dna::levenshtein_myers_banded_batch(pattern, ptrs.data(), ptrs.size(),
                                            band, got.data());
        EXPECT_EQ(want, got) << isa_name(isa) << " plen=" << plen
                             << " band=" << band;
      }
    }
  }
}

TEST(SimdEquivalence, MyersBatchEmptyPatternAndEmptyBatch) {
  namespace dna = hetero::dna;
  IsaGuard guard;
  const dna::MyersPattern empty{dna::Strand{}};
  const dna::Strand short_text = {dna::Base::A, dna::Base::C};
  const dna::Strand long_text(10, dna::Base::G);
  std::vector<const dna::Strand*> ptrs = {&short_text, &long_text};
  for (const Isa isa : supported_isas()) {
    set_active_isa(isa);
    std::vector<int> got(2, -1);
    dna::levenshtein_myers_banded_batch(empty, ptrs.data(), 2, 3, got.data());
    EXPECT_EQ(got[0], 2);  // d("", "AC") = 2 <= band
    EXPECT_EQ(got[1], 4);  // length screen: 10 > band -> band + 1
    dna::levenshtein_myers_banded_batch(empty, ptrs.data(), 0, 3, got.data());
    EXPECT_EQ(got[0], 2);  // untouched by an empty batch
  }
}


// ---------------------------------------------------------------------------
// normal_pairs: the counter-based Box-Muller stream of the crossbar reads.

/// Distance in ulps between two doubles of the same sign.
double ulps(double got, double want) {
  if (got == want) return 0.0;
  return std::abs(got - want) /
         (std::nextafter(std::abs(want), INFINITY) - std::abs(want));
}

TEST(SimdEquivalence, NormalPairsMatchScalarBitwise) {
  // Tails of 0-7 pairs after 0, 1 and 16 full vectors, counters that wrap
  // at 2^64 - 1, and the keys 0 and ~0.
  IsaGuard guard;
  const std::uint64_t keys[] = {0, ~std::uint64_t{0}, 0x5EEDULL,
                                0x9E3779B97F4A7C15ULL};
  const std::uint64_t firsts[] = {0, 1, 12345, ~std::uint64_t{0} - 5,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t key : keys) {
    for (const std::uint64_t first : firsts) {
      for (const std::size_t base : {std::size_t{0}, std::size_t{4},
                                     std::size_t{64}}) {
        for (std::size_t tail = 0; tail <= 7; ++tail) {
          const std::size_t n = base + tail;
          std::vector<double> w0(n + 1, -7.0), w1(n + 1, -7.0);
          scalar_impl::normal_pairs(key, first, n, w0.data(), w1.data());
          for (const Isa isa : supported_isas()) {
            set_active_isa(isa);
            std::vector<double> z0(n + 1, -7.0), z1(n + 1, -7.0);
            normal_pairs(key, first, n, z0.data(), z1.data());
            for (std::size_t j = 0; j <= n; ++j) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(z0[j]),
                        std::bit_cast<std::uint64_t>(w0[j]))
                  << isa_name(isa) << " key=" << key << " first=" << first
                  << " n=" << n << " j=" << j;
              ASSERT_EQ(std::bit_cast<std::uint64_t>(z1[j]),
                        std::bit_cast<std::uint64_t>(w1[j]))
                  << isa_name(isa) << " key=" << key << " first=" << first
                  << " n=" << n << " j=" << j;
            }
          }
        }
      }
    }
  }
}

TEST(NormalPairs, GoldenFirstPairs) {
  // The first 8 pairs of two keys, from the scalar oracle; every ISA must
  // return them, and a pair depends on its counter alone.
  IsaGuard guard;
  struct Golden {
    std::uint64_t key;
    double z0[8];
    double z1[8];
  };
  const Golden goldens[] = {
      {0x1C5CF2ULL,
       {-1.9167638735993195, -0.21661842381109486, 1.29342109242665,
        0.92425992592758299, -2.3709933920208388, -0.32420456062168573,
        0.41253306763106762, 1.2499259563753107},
       {2.4178744020477079, -0.72917662733414657, 1.3559777507719937,
        0.56713449154876083, -0.26488584929567532, 2.6663907588408908,
        -0.45596139399639618, -0.82098904336546752}},
      {0xFFFFFFFFFFFFFFFFULL,
       {0.47050481666081156, -0.042308456066235033, -1.5660666346055003,
        -0.62515437250415806, 0.17293935932079449, -0.6175886501445732,
        0.2549189044708724, -1.6551317486754318},
       {-0.053403406667185863, -0.42559528180768147, -0.76184364682991568,
        -1.1466095573016741, 0.81706102734343133, -0.064220699198762679,
        -0.23067808911638091, -0.14740865770517506}},
  };
  for (const Golden& g : goldens) {
    for (const Isa isa : supported_isas()) {
      set_active_isa(isa);
      double z0[8];
      double z1[8];
      normal_pairs(g.key, 0, 8, z0, z1);
      for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(z0[j], g.z0[j]) << isa_name(isa) << " key " << g.key
                                  << " pair " << j;
        EXPECT_EQ(z1[j], g.z1[j]) << isa_name(isa) << " key " << g.key
                                  << " pair " << j;
        double a = 0.0;
        double b = 0.0;
        normal_pairs(g.key, static_cast<std::uint64_t>(j), 1, &a, &b);
        EXPECT_EQ(a, g.z0[j]);
        EXPECT_EQ(b, g.z1[j]);
      }
    }
  }
}

TEST(NormalPairs, PolynomialsWithinUlpsOfLibm) {
  // The log and sin/cos polynomials against glibc: ln(k 2^-32) over every
  // k < 2^16, both sides of every power of two and of each sqrt(2)
  // split, and 2^20 random k; sin and cos of 2^20 random angles of the
  // first quadrant plus its two ends (the other quadrants swap and negate
  // these exactly).
  namespace nc = scalar_impl::normal;
  Rng rng(0xB0C5);
  double log_err = 0.0;
  const auto check_log = [&](std::uint64_t k) {
    const double want = std::log(static_cast<double>(k) * 0x1p-32);
    const double got = nc::log_u32_unit(k);
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0);
      return;
    }
    log_err = std::max(log_err, ulps(got, want));
  };
  for (std::uint64_t k = 1; k < (1U << 16); ++k) check_log(k);
  for (int b = 0; b <= 32; ++b) {
    const auto p = std::uint64_t{1} << b;
    const auto r = static_cast<std::uint64_t>(std::ldexp(nc::kSqrt2, b));
    for (const std::uint64_t k : {p - 1, p, p + 1, r - 1, r, r + 1}) {
      if (k >= 1 && k <= (std::uint64_t{1} << 32)) check_log(k);
    }
  }
  for (int i = 0; i < (1 << 20); ++i) check_log(1 + rng.below(1ULL << 32));

  double sin_err = 0.0;
  double cos_err = 0.0;
  const auto check_angle = [&](std::uint32_t f) {
    const double phi =
        (static_cast<double>(f) - 0x1p29 + 0.5) * nc::kAngleStep;
    double c;
    double s;
    nc::sincos_u32(f, c, s);  // quadrant 0: no swap, no sign flip
    cos_err = std::max(cos_err, ulps(c, std::cos(phi)));
    sin_err = std::max(sin_err, ulps(s, std::sin(phi)));
  };
  for (const std::uint32_t f : {0U, 1U, (1U << 29) - 1, 1U << 29,
                                (1U << 30) - 2, (1U << 30) - 1}) {
    check_angle(f);
  }
  for (int i = 0; i < (1 << 20); ++i) {
    check_angle(static_cast<std::uint32_t>(rng.below(1U << 30)));
  }
  // Measured against x86-64 glibc: log 2, sin 1, cos 1 ulp. The bounds
  // leave one ulp for a libm that is itself off by one.
  EXPECT_LE(log_err, 3.0);
  EXPECT_LE(sin_err, 2.0);
  EXPECT_LE(cos_err, 2.0);
}

/// 2^20 normals (2^19 pairs) of one fixed key, as z0 and z1 halves.
struct NormalSample {
  std::vector<double> z0, z1;
  explicit NormalSample(std::uint64_t key)
      : z0(std::size_t{1} << 19), z1(std::size_t{1} << 19) {
    normal_pairs(key, 0, z0.size(), z0.data(), z1.data());
  }
  std::vector<double> all() const {
    std::vector<double> z = z0;
    z.insert(z.end(), z1.begin(), z1.end());
    return z;
  }
};

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double correlation(const double* a, const double* b, std::size_t n) {
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sa += a[i];
    sb += b[i];
    saa += a[i] * a[i];
    sbb += b[i] * b[i];
    sab += a[i] * b[i];
  }
  const double dn = static_cast<double>(n);
  const double cov = sab / dn - (sa / dn) * (sb / dn);
  return cov / std::sqrt((saa / dn - (sa / dn) * (sa / dn)) *
                         (sbb / dn - (sb / dn) * (sb / dn)));
}

// The statistical contract of the stream, on 2^20 draws of fixed keys.
// Every bound is fixed in advance: moments within 5 standard errors, KS
// below its alpha = 0.001 critical value, correlations within 5/sqrt(n).
TEST(NormalPairsStats, MomentsWithinFiveStandardErrors) {
  const auto z = NormalSample(0xC0FFEE).all();
  const double n = static_cast<double>(z.size());
  double m1 = 0, m2 = 0, m3 = 0, m4 = 0;
  for (const double v : z) {
    m1 += v;
    m2 += v * v;
    m3 += v * v * v;
    m4 += v * v * v * v;
  }
  m1 /= n;
  m2 /= n;
  m3 /= n;
  m4 /= n;
  const double var = m2 - m1 * m1;
  EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n));
  // Raw third and fourth moments: Var(z^3) = 15, Var(z^4) = 105 - 9.
  EXPECT_NEAR(m3, 0.0, 5.0 * std::sqrt(15.0 / n));
  EXPECT_NEAR(m4, 3.0, 5.0 * std::sqrt(96.0 / n));
  // |z| <= sqrt(-2 ln 2^-32) = sqrt(64 ln 2).
  for (const double v : z) ASSERT_LE(std::abs(v), std::sqrt(64.0 * M_LN2));
}

TEST(NormalPairsStats, KolmogorovSmirnovAgainstStandardNormal) {
  auto z = NormalSample(0xA11CE).all();
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double f = normal_cdf(z[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  EXPECT_LT(d, 1.949 / std::sqrt(n));  // alpha = 0.001
}

TEST(NormalPairsStats, TwoSampleKsAgainstSequentialRng) {
  auto z = NormalSample(0xB0B).all();
  std::vector<double> r(z.size());
  Rng rng(0xB0B);
  for (auto& v : r) v = rng.normal();
  std::sort(z.begin(), z.end());
  std::sort(r.begin(), r.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < z.size() && j < r.size()) {
    const double x = std::min(z[i], r[j]);
    while (i < z.size() && z[i] <= x) ++i;
    while (j < r.size() && r[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) - static_cast<double>(j)) /
                        n);
  }
  EXPECT_LT(d, 1.949 * std::sqrt(2.0 / n));  // alpha = 0.001, m = n
}

TEST(NormalPairsStats, NoLagOneOrPairCorrelation) {
  const NormalSample s(0xD1CE);
  const std::size_t n = s.z0.size();
  const double bound = 5.0 / std::sqrt(static_cast<double>(n));
  // Neighbouring counters, in each half and across the pair.
  EXPECT_NEAR(correlation(s.z0.data(), s.z0.data() + 1, n - 1), 0.0, bound);
  EXPECT_NEAR(correlation(s.z1.data(), s.z1.data() + 1, n - 1), 0.0, bound);
  EXPECT_NEAR(correlation(s.z0.data(), s.z1.data(), n), 0.0, bound);
  // The squares too: Box-Muller pairs share a radius.
  std::vector<double> q0(n), q1(n);
  for (std::size_t i = 0; i < n; ++i) {
    q0[i] = s.z0[i] * s.z0[i];
    q1[i] = s.z1[i] * s.z1[i];
  }
  EXPECT_NEAR(correlation(q0.data(), q0.data() + 1, n - 1), 0.0, bound);
  EXPECT_NEAR(correlation(q0.data(), q1.data(), n), 0.0, bound);
}

TEST(NormalPairsStats, ThreeSigmaTailInsideBinomialInterval) {
  const auto z = NormalSample(0x7A11).all();
  const double n = static_cast<double>(z.size());
  const double p = std::erfc(3.0 / std::sqrt(2.0));  // P(|z| > 3)
  double tail = 0.0;
  for (const double v : z) tail += std::abs(v) > 3.0 ? 1.0 : 0.0;
  EXPECT_NEAR(tail, n * p, 5.0 * std::sqrt(n * p * (1.0 - p)));
}

}  // namespace
}  // namespace icsc::core::simd
