// SSE4.2 variant of the SIMD primitives (2 x 64-bit lanes). This TU is
// the only one compiled with -msse4.2; the dispatcher in simd.cpp only
// enters it on CPUs that support SSE4.2.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/simd_dispatch.hpp"
#include "core/simd_scalar.hpp"

#define ICSC_SIMD_VARIANT 1

namespace icsc::core::simd::sse4 {

#include "core/simd_vec.inl"
#include "core/simd_kernels.inl"

}  // namespace icsc::core::simd::sse4
