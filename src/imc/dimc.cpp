#include "imc/dimc.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"

namespace icsc::imc {

namespace {

/// The [out, in] shape of a weight matrix; throws core::Error unless
/// `weights` is rank-2.
const core::Shape& matrix_shape(const core::TensorF& weights) {
  if (weights.rank() != 2) {
    throw core::Error("imc::DimcMacro", "weights must be rank-2",
                      "got shape " + core::shape_to_string(weights.shape()));
  }
  return weights.shape();
}

}  // namespace

DimcMacro::DimcMacro(const core::TensorF& weights, const DimcConfig& config)
    : config_(config), q_weights_(matrix_shape(weights)) {
  float w_max = 0.0F;
  for (const float w : weights.data()) w_max = std::max(w_max, std::abs(w));
  const double levels = (1 << (config_.weight_bits - 1)) - 1;
  weight_step_ = w_max > 0 ? w_max / levels : 1.0;
  for (std::size_t i = 0; i < weights.numel(); ++i) {
    q_weights_[i] = static_cast<std::int32_t>(std::clamp(
        std::round(weights[i] / weight_step_), -levels, levels));
  }
}

std::vector<float> DimcMacro::matvec(std::span<const float> x) {
  if (x.size() != q_weights_.dim(1)) {
    throw core::Error("imc::DimcMacro::matvec", "input length mismatch",
                      "got " + std::to_string(x.size()) + ", expected " +
                          std::to_string(q_weights_.dim(1)));
  }
  const std::size_t out = q_weights_.dim(0);
  const std::size_t in = q_weights_.dim(1);
  double x_max = 0.0;
  for (const float v : x) x_max = std::max(x_max, std::abs(double{v}));
  const double x_levels = (1 << (config_.input_bits - 1)) - 1;
  const double x_step = x_max > 0 ? x_max / x_levels : 1.0;

  std::vector<std::int64_t> acc(out, 0);
  std::vector<std::int32_t> xq(in);
  for (std::size_t i = 0; i < in; ++i) {
    xq[i] = static_cast<std::int32_t>(std::clamp(
        std::round(x[i] / x_step), -x_levels, x_levels));
  }
  for (std::size_t o = 0; o < out; ++o) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < in; ++i) {
      sum += static_cast<std::int64_t>(q_weights_(o, i)) * xq[i];
    }
    acc[o] = sum;
  }
  // Bit-serial execution: input_bits macro cycles, each doing in x out
  // 1b x Wb MACs.
  energy_.add_pj("dimc_mac", static_cast<double>(in) * out *
                                 config_.input_bits * config_.mac_energy_pj);
  energy_.add_pj("readout",
                 static_cast<double>(out) * config_.readout_energy_pj);

  std::vector<float> y(out);
  for (std::size_t o = 0; o < out; ++o) {
    y[o] = static_cast<float>(static_cast<double>(acc[o]) * weight_step_ *
                              x_step);
  }
  return y;
}

std::uint64_t DimcMacro::ops_per_mvm() const {
  return 2ull * q_weights_.dim(0) * q_weights_.dim(1);
}

double DimcMacro::tops_per_watt(double clock_mhz, double static_power_mw) const {
  // One macro pass per input_bits cycles; ops per pass = 2*in*out.
  const double ops_per_second = static_cast<double>(ops_per_mvm()) *
                                clock_mhz * 1e6 / config_.input_bits;
  const double dynamic_w = static_cast<double>(q_weights_.numel()) *
                           config_.input_bits * config_.mac_energy_pj * 1e-12 *
                           clock_mhz * 1e6 / config_.input_bits;
  const double watts = dynamic_w + static_power_mw * 1e-3;
  return watts > 0 ? ops_per_second * 1e-12 / watts : 0.0;
}

double digital_baseline_mac_energy_pj() {
  // 8b MAC (~0.3 pJ in 28nm) plus SRAM weight fetch (~2.5 pJ/byte moved):
  // the data-movement tax IMC removes.
  return 2.8;
}

}  // namespace icsc::imc
