// Internal: per-ISA entry points behind core/simd.hpp's dispatchers.
//
// Each namespace is defined by one translation unit compiled with the
// matching -m flags (simd_sse4.cpp, simd_avx2.cpp, simd_neon.cpp); the
// kernel bodies themselves are shared via simd_kernels.inl, instantiated
// against that TU's vector wrapper. Only simd.cpp includes this header.
#pragma once

#include <cstddef>
#include <cstdint>

// Declares the full primitive set inside the current namespace; kept as a
// macro so the three variant declarations cannot drift apart.
#define ICSC_SIMD_DECLARE_VARIANT()                                          \
  void axpy_f32_f64(double w, const float* x, double* acc, std::size_t n);   \
  void tap_panel_axpy_f32_f64(const float* const* rows,                      \
                              const double* weights, std::size_t taps,       \
                              double* acc, std::size_t n);                   \
  void panel_axpy_f32(const float* w, const float* x, std::size_t ldx,       \
                      std::size_t taps, float* acc, std::size_t n);          \
  void quantize_fixed_f32(float* data, std::size_t n, int int_bits,          \
                          int frac_bits);                                    \
  void qtap_exact(const std::int32_t* x, std::int32_t w, int loa_bits,       \
                  std::int64_t* acc, std::size_t n);                         \
  void qtap_truncated(const std::int32_t* x, std::int32_t w, int trunc_bits, \
                      int loa_bits, std::int64_t* acc, std::size_t n);       \
  void madd_panel_i16(const std::int16_t* const* rows, const std::int16_t* w, \
                      std::size_t taps, std::size_t outs,                    \
                      std::size_t flush_taps, std::int64_t* acc,             \
                      std::size_t ld, std::size_t n);                        \
  int requantize_pair_q16(const std::int64_t* lo, const std::int64_t* hi,    \
                          std::size_t n, double scale, bool relu,            \
                          int int_bits, int frac_bits, std::int16_t* out);   \
  void normal_pairs(std::uint64_t key, std::uint64_t first,                  \
                    std::size_t count, double* z0, double* z1);              \
  std::uint32_t l1_distance_u16(const std::uint16_t* a,                      \
                                const std::uint16_t* b, std::size_t n);      \
  void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,      \
                          std::size_t pattern_len,                           \
                          const std::uint8_t* const* texts,                  \
                          const std::size_t* text_lens, std::size_t count,   \
                          int band, int* out);

namespace icsc::core::simd {

#if defined(__x86_64__) || defined(__i386__)
namespace sse4 {
ICSC_SIMD_DECLARE_VARIANT()
}
namespace avx2 {
ICSC_SIMD_DECLARE_VARIANT()
}
#endif

#if defined(__aarch64__)
namespace neon {
ICSC_SIMD_DECLARE_VARIANT()
}
#endif

}  // namespace icsc::core::simd
