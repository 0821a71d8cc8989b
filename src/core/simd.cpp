// Runtime ISA detection and dispatch for the SIMD primitives.
//
// Detection uses the compiler's CPU feature builtins on x86 (which also
// check OS support for the AVX register state); aarch64 makes NEON
// architectural, so detection there is a compile-time fact. The resolved
// ISA is cached in an atomic: the first primitive call reads ICSC_SIMD,
// clamps it to what the CPU supports, and every later call is a single
// relaxed load plus a switch.
#include "core/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/simd_dispatch.hpp"
#include "core/simd_scalar.hpp"

namespace icsc::core::simd {

namespace scalar_impl {

void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,
                        std::size_t pattern_len,
                        const std::uint8_t* const* texts,
                        const std::size_t* text_lens, std::size_t count,
                        int band, int* out) {
  std::vector<std::uint64_t> pv(blocks), mv(blocks);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = myers_banded_one(peq, blocks, pattern_len, texts[i],
                              text_lens[i], band, pv.data(), mv.data());
  }
}

}  // namespace scalar_impl

namespace {

// -1 = not resolved yet; otherwise the int value of the active Isa.
std::atomic<int> g_active{-1};

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse4:
      return "sse4";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "scalar";
}

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse4:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse4.2");
#else
      return false;
#endif
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Isa detected_isa() {
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_supported(Isa::kSse4)) return Isa::kSse4;
  if (isa_supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa resolve_isa(const char* env_value) {
  if (env_value != nullptr) {
    Isa requested = Isa::kScalar;
    bool known = true;
    if (std::strcmp(env_value, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env_value, "sse4") == 0) {
      requested = Isa::kSse4;
    } else if (std::strcmp(env_value, "avx2") == 0) {
      requested = Isa::kAvx2;
    } else if (std::strcmp(env_value, "neon") == 0) {
      requested = Isa::kNeon;
    } else {
      known = false;  // includes "auto": use the best supported ISA
    }
    if (known && isa_supported(requested)) return requested;
  }
  return detected_isa();
}

Isa active_isa() {
  int current = g_active.load(std::memory_order_relaxed);
  if (current < 0) {
    const Isa resolved = resolve_isa(std::getenv("ICSC_SIMD"));
    current = static_cast<int>(resolved);
    int expected = -1;
    // Another thread may have resolved concurrently; both resolve to the
    // same value, so whichever CAS wins is equivalent.
    g_active.compare_exchange_strong(expected, current,
                                     std::memory_order_relaxed);
    current = g_active.load(std::memory_order_relaxed);
  }
  return static_cast<Isa>(current);
}

Isa set_active_isa(Isa isa) {
  const Isa applied = isa_supported(isa) ? isa : detected_isa();
  g_active.store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

std::string cpu_features() {
  std::string features;
  const auto append = [&features](const char* name) {
    if (!features.empty()) features += ' ';
    features += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse2")) append("sse2");
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx")) append("avx");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("fma")) append("fma");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
#elif defined(__aarch64__)
  append("neon");
#endif
  if (features.empty()) features = "none";
  return features;
}

void axpy_f32_f64(double w, const float* x, double* acc, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::axpy_f32_f64(w, x, acc, n);
    case Isa::kSse4:
      return sse4::axpy_f32_f64(w, x, acc, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::axpy_f32_f64(w, x, acc, n);
#endif
    default:
      return scalar_impl::axpy_f32_f64(w, x, acc, n);
  }
}

void tap_panel_axpy_f32_f64(const float* const* rows, const double* weights,
                            std::size_t taps, double* acc, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::tap_panel_axpy_f32_f64(rows, weights, taps, acc, n);
    case Isa::kSse4:
      return sse4::tap_panel_axpy_f32_f64(rows, weights, taps, acc, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::tap_panel_axpy_f32_f64(rows, weights, taps, acc, n);
#endif
    default:
      return scalar_impl::tap_panel_axpy_f32_f64(rows, weights, taps, acc, n);
  }
}

void panel_axpy_f32(const float* w, const float* x, std::size_t ldx,
                    std::size_t taps, float* acc, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::panel_axpy_f32(w, x, ldx, taps, acc, n);
    case Isa::kSse4:
      return sse4::panel_axpy_f32(w, x, ldx, taps, acc, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::panel_axpy_f32(w, x, ldx, taps, acc, n);
#endif
    default:
      return scalar_impl::panel_axpy_f32(w, x, ldx, taps, acc, n);
  }
}

void quantize_fixed_f32(float* data, std::size_t n, int int_bits,
                        int frac_bits) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::quantize_fixed_f32(data, n, int_bits, frac_bits);
    case Isa::kSse4:
      return sse4::quantize_fixed_f32(data, n, int_bits, frac_bits);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::quantize_fixed_f32(data, n, int_bits, frac_bits);
#endif
    default:
      return scalar_impl::quantize_fixed_f32(data, n, int_bits, frac_bits);
  }
}

void qtap_exact(const std::int32_t* x, std::int32_t w, int loa_bits,
                std::int64_t* acc, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::qtap_exact(x, w, loa_bits, acc, n);
    case Isa::kSse4:
      return sse4::qtap_exact(x, w, loa_bits, acc, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::qtap_exact(x, w, loa_bits, acc, n);
#endif
    default:
      return scalar_impl::qtap_exact(x, w, loa_bits, acc, n);
  }
}

void qtap_truncated(const std::int32_t* x, std::int32_t w, int trunc_bits,
                    int loa_bits, std::int64_t* acc, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::qtap_truncated(x, w, trunc_bits, loa_bits, acc, n);
    case Isa::kSse4:
      return sse4::qtap_truncated(x, w, trunc_bits, loa_bits, acc, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::qtap_truncated(x, w, trunc_bits, loa_bits, acc, n);
#endif
    default:
      return scalar_impl::qtap_truncated(x, w, trunc_bits, loa_bits, acc, n);
  }
}

void madd_panel_i16(const std::int16_t* const* rows, const std::int16_t* w,
                    std::size_t taps, std::size_t outs,
                    std::size_t flush_taps, std::int64_t* acc,
                    std::size_t ld, std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::madd_panel_i16(rows, w, taps, outs, flush_taps, acc, ld, n);
    case Isa::kSse4:
      return sse4::madd_panel_i16(rows, w, taps, outs, flush_taps, acc, ld, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::madd_panel_i16(rows, w, taps, outs, flush_taps, acc, ld, n);
#endif
    default:
      return scalar_impl::madd_panel_i16(rows, w, taps, outs, flush_taps, acc,
                                         ld, n);
  }
}

int requantize_pair_q16(const std::int64_t* lo, const std::int64_t* hi,
                        std::size_t n, double scale, bool relu, int int_bits,
                        int frac_bits, std::int16_t* out) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::requantize_pair_q16(lo, hi, n, scale, relu, int_bits,
                                       frac_bits, out);
    case Isa::kSse4:
      return sse4::requantize_pair_q16(lo, hi, n, scale, relu, int_bits,
                                       frac_bits, out);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::requantize_pair_q16(lo, hi, n, scale, relu, int_bits,
                                       frac_bits, out);
#endif
    default:
      return scalar_impl::requantize_pair_q16(lo, hi, n, scale, relu,
                                              int_bits, frac_bits, out);
  }
}

void normal_pairs(std::uint64_t key, std::uint64_t first, std::size_t count,
                  double* z0, double* z1) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::normal_pairs(key, first, count, z0, z1);
    case Isa::kSse4:
      return sse4::normal_pairs(key, first, count, z0, z1);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::normal_pairs(key, first, count, z0, z1);
#endif
    default:
      return scalar_impl::normal_pairs(key, first, count, z0, z1);
  }
}

std::uint32_t l1_distance_u16(const std::uint16_t* a, const std::uint16_t* b,
                              std::size_t n) {
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::l1_distance_u16(a, b, n);
    case Isa::kSse4:
      return sse4::l1_distance_u16(a, b, n);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::l1_distance_u16(a, b, n);
#endif
    default:
      return scalar_impl::l1_distance_u16(a, b, n);
  }
}

void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,
                        std::size_t pattern_len,
                        const std::uint8_t* const* texts,
                        const std::size_t* text_lens, std::size_t count,
                        int band, int* out) {
  // Narrow batches cannot amortise the vector kernel's per-column lane
  // housekeeping (masked blends, gather of the match masks, finalize
  // scan); the scalar kernel is faster until at least three lanes are
  // live. Results are identical either way -- the vector path is
  // bit-exact vs the scalar oracle by contract.
  if (count < 3) {
    return scalar_impl::myers_banded_batch(peq, blocks, pattern_len, texts,
                                           text_lens, count, band, out);
  }
  switch (active_isa()) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      return avx2::myers_banded_batch(peq, blocks, pattern_len, texts,
                                      text_lens, count, band, out);
    case Isa::kSse4:
      return sse4::myers_banded_batch(peq, blocks, pattern_len, texts,
                                      text_lens, count, band, out);
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return neon::myers_banded_batch(peq, blocks, pattern_len, texts,
                                      text_lens, count, band, out);
#endif
    default:
      return scalar_impl::myers_banded_batch(peq, blocks, pattern_len, texts,
                                             text_lens, count, band, out);
  }
}

}  // namespace icsc::core::simd
