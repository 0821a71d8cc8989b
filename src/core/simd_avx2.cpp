// AVX2 variant of the SIMD primitives (4 x 64-bit lanes). This TU is the
// only one compiled with -mavx2; it must never be entered on CPUs without
// AVX2 (the dispatcher in simd.cpp guarantees that).
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/simd_dispatch.hpp"
#include "core/simd_scalar.hpp"

#define ICSC_SIMD_VARIANT 2

namespace icsc::core::simd::avx2 {

#include "core/simd_vec.inl"
#include "core/simd_kernels.inl"

}  // namespace icsc::core::simd::avx2
