#include "imc/mlc.hpp"

#include <algorithm>
#include <cmath>

#include "core/nn.hpp"
#include "imc/pipeline.hpp"

namespace icsc::imc {

int reliable_levels(const DeviceSpec& spec, const ProgramVerifyConfig& config,
                    int probe_cells, std::uint64_t seed) {
  const auto stats = measure_programming(spec, config, probe_cells, seed);
  // Mean |error| of a zero-mean Gaussian is sigma * sqrt(2/pi).
  const double sigma = stats.mean_abs_error_us * 1.2533141373155;
  if (sigma <= 0.0) return 256;
  // Levels are distinguishable when half the spacing exceeds 3 sigma:
  // spacing = range / (L - 1) >= 6 sigma.
  const int levels =
      1 + static_cast<int>(std::floor(spec.g_range() / (6.0 * sigma)));
  return std::clamp(levels, 2, 256);
}

DriftCompensator::DriftCompensator(const DeviceSpec& spec,
                                   const ProgramVerifyConfig& pv,
                                   int reference_cells, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  const double target = spec.g_min_us + 0.8 * spec.g_range();
  for (int i = 0; i < reference_cells; ++i) {
    MemoryCell cell(spec_, rng_);
    program_cell(cell, spec_, rng_, target, pv);
    programmed_.push_back(cell.raw_conductance());
    reference_.push_back(cell);
  }
}

double DriftCompensator::decay_estimate(double t_seconds) {
  double programmed_sum = 0.0, read_sum = 0.0;
  for (std::size_t i = 0; i < reference_.size(); ++i) {
    programmed_sum += programmed_[i];
    read_sum += reference_[i].read(spec_, rng_, t_seconds);
  }
  if (programmed_sum <= 0.0) return 1.0;
  return std::max(1e-6, read_sum / programmed_sum);
}

void DriftCompensator::compensate(std::vector<float>& y, double t_seconds) {
  const double inverse = 1.0 / decay_estimate(t_seconds);
  for (auto& v : y) v = static_cast<float>(v * inverse);
}

namespace {

/// Analog backend with optional reference-column compensation.
class CompensatedBackend : public core::MatvecOverride {
public:
  CompensatedBackend(const core::Mlp& mlp, const TileConfig& config,
                     double t_seconds, bool compensate, std::uint64_t seed)
      : analog_(mlp, config),
        compensator_(config.crossbar.device, config.crossbar.programming, 32,
                     seed ^ 0xC0FFEE),
        t_seconds_(t_seconds),
        compensate_(compensate) {
    analog_.set_read_time(t_seconds);
  }

  std::vector<float> matvec(std::size_t layer, const core::TensorF& weights,
                            std::span<const float> x) override {
    auto y = analog_.matvec(layer, weights, x);
    if (compensate_) compensator_.compensate(y, t_seconds_);
    return y;
  }

private:
  AnalogMlpBackend analog_;
  DriftCompensator compensator_;
  double t_seconds_;
  bool compensate_;
};

}  // namespace

CompensationResult run_drift_compensation_experiment(double t_seconds,
                                                     std::uint64_t seed) {
  const auto data = core::make_gaussian_clusters(50, 8, 16, 1.2, seed);
  core::Mlp mlp({16, 32, 8}, seed);
  mlp.train(data, 0.05F, 60, 0.99);

  TileConfig config;
  config.crossbar.device = pcm_spec();
  config.crossbar.programming.scheme = ProgramScheme::kVerify;

  CompensationResult result;
  {
    CompensatedBackend off(mlp, config, t_seconds, false, seed);
    result.accuracy_uncompensated =
        core::accuracy_with_override(mlp, data, off);
  }
  {
    CompensatedBackend on(mlp, config, t_seconds, true, seed);
    result.accuracy_compensated = core::accuracy_with_override(mlp, data, on);
    DriftCompensator probe(config.crossbar.device,
                           config.crossbar.programming, 32, seed ^ 0xC0FFEE);
    result.decay_estimate = probe.decay_estimate(t_seconds);
  }
  return result;
}

}  // namespace icsc::imc
