// NEON variant of the SIMD primitives (2 x 64-bit lanes). Advanced SIMD
// is architectural on aarch64, so no extra -m flags are needed; the TU is
// simply excluded from non-aarch64 builds.
#include <arm_neon.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/simd_dispatch.hpp"
#include "core/simd_scalar.hpp"

#define ICSC_SIMD_VARIANT 3

namespace icsc::core::simd::neon {

#include "core/simd_vec.inl"
#include "core/simd_kernels.inl"

}  // namespace icsc::core::simd::neon
