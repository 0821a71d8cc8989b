#include "imc/pipeline.hpp"

#include "core/error.hpp"

namespace icsc::imc {

AnalogMlpBackend::AnalogMlpBackend(const core::Mlp& mlp,
                                   const TileConfig& config) {
  config.validate();
  TileConfig layer_config = config;
  for (const auto& layer : mlp.layers()) {
    layer_config.crossbar.seed += 1000;  // fresh devices per layer
    layers_.push_back(
        std::make_unique<TiledMatvec>(layer.weights, layer_config));
  }
}

void AnalogMlpBackend::set_read_time(double t_seconds) {
  core::require_at_least("imc::AnalogMlpBackend", "t_seconds", t_seconds,
                         0.0);
  t_seconds_ = t_seconds;
}

std::vector<float> AnalogMlpBackend::matvec(std::size_t layer_index,
                                            const core::TensorF& /*weights*/,
                                            std::span<const float> x) {
  auto& layer = *layers_.at(layer_index);
  ops_ += layer.ops_per_mvm();
  return layer.matvec(x, t_seconds_);
}

double AnalogMlpBackend::total_energy_pj() const {
  double total = 0.0;
  for (const auto& layer : layers_) total += layer->total_energy_pj();
  return total;
}

DimcMlpBackend::DimcMlpBackend(const core::Mlp& mlp, const DimcConfig& config) {
  for (const auto& layer : mlp.layers()) {
    layers_.push_back(std::make_unique<DimcMacro>(layer.weights, config));
  }
}

std::vector<float> DimcMlpBackend::matvec(std::size_t layer_index,
                                          const core::TensorF& /*weights*/,
                                          std::span<const float> x) {
  auto& layer = *layers_.at(layer_index);
  ops_ += layer.ops_per_mvm();
  return layer.matvec(x);
}

double DimcMlpBackend::total_energy_pj() const {
  double total = 0.0;
  for (const auto& layer : layers_) total += layer->energy().total_pj();
  return total;
}

ImcAccuracyPoint run_imc_experiment(const TileConfig& config,
                                    double t_seconds, std::uint64_t seed) {
  // Hard-enough task that analog error is visible: 8 overlapping clusters.
  const auto data = core::make_gaussian_clusters(50, 8, 16, 1.2, seed);
  core::Mlp mlp({16, 32, 8}, seed);
  mlp.train(data, 0.05F, 60, 0.99);

  ImcAccuracyPoint point;
  point.software_accuracy = mlp.accuracy(data);

  AnalogMlpBackend backend(mlp, config);
  backend.set_read_time(t_seconds);
  const double energy_before = backend.total_energy_pj();
  point.imc_accuracy = core::accuracy_with_override(mlp, data, backend);
  const double inference_energy = backend.total_energy_pj() - energy_before;
  point.energy_per_inference_nj =
      inference_energy * 1e-3 / static_cast<double>(data.size());
  return point;
}

}  // namespace icsc::imc
