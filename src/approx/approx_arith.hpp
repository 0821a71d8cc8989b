// Approximate arithmetic operators (Sec. V).
//
// "Approximate computing has gained popularity as a powerful methodology to
// design efficient hardware accelerators with limited power consumption and
// resource utilization" [12], [13]. We implement the three classic
// bit-level approximate operators used in such accelerators -- the
// lower-part-OR adder (LOA), the truncated array multiplier, and Mitchell's
// logarithmic multiplier -- plus error-statistics helpers used by the
// ablation benches to quantify the power/accuracy trade-off.
#pragma once

#include <cstdint>
#include <functional>

namespace icsc::approx {

/// Lower-part-OR adder: the low `approx_bits` are OR-ed instead of added
/// (no carry chain), the upper part is added exactly. Classic LOA.
/// Requires approx_bits <= 63; ApproxArithConfig::validate() holds the
/// conv datapaths to it.
std::int64_t loa_add(std::int64_t a, std::int64_t b, int approx_bits);

/// Truncated multiplier: partial products whose weight is below
/// 2^truncated_bits are discarded before accumulation. Models a
/// fixed-width array multiplier with the low columns pruned. Requires
/// truncated_bits <= 63, as loa_add does.
std::int64_t truncated_mul(std::int32_t a, std::int32_t b, int truncated_bits);

/// Mitchell's logarithmic multiplier: |a|*|b| ~ 2^(log2|a| + log2|b|) with
/// the piecewise-linear log approximation log2(1+f) ~ f. Sign handled
/// exactly; either operand zero gives zero.
std::int64_t mitchell_mul(std::int32_t a, std::int32_t b);

/// Error statistics of an approximate binary operator against the exact
/// one over `trials` random operand pairs drawn uniformly from
/// [-magnitude, magnitude].
struct ErrorStats {
  double mean_relative_error = 0.0;  // mean |approx-exact| / max(1, |exact|)
  double max_relative_error = 0.0;
  double mean_error = 0.0;  // signed bias
  double error_rate = 0.0;  // fraction of trials with any error
};

ErrorStats measure_error(
    const std::function<std::int64_t(std::int32_t, std::int32_t)>& approx_op,
    const std::function<std::int64_t(std::int32_t, std::int32_t)>& exact_op,
    std::int32_t magnitude, int trials, std::uint64_t seed);

/// Relative hardware-cost factors (energy per op, normalised to the exact
/// operator = 1.0) used by the ablation bench. Calibrated from published
/// LOA / truncation / Mitchell synthesis results at 16 bit.
double loa_energy_factor(int approx_bits, int total_bits);
double truncated_mul_energy_factor(int truncated_bits, int total_bits);
double mitchell_mul_energy_factor();

}  // namespace icsc::approx
