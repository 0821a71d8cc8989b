#include "scf/model.hpp"

namespace icsc::scf {

TransformerModel::TransformerModel(const TransformerConfig& config, int layers)
    : config_(config) {
  for (int l = 0; l < layers; ++l) {
    TransformerConfig block_config = config;
    block_config.seed = config.seed + static_cast<std::uint64_t>(l) * 101;
    blocks_.push_back(std::make_unique<TransformerBlock>(block_config));
  }
}

core::TensorF TransformerModel::forward(const core::TensorF& input,
                                        std::vector<KernelCall>* trace) const {
  core::TensorF activations = input;
  for (const auto& block : blocks_) {
    activations = block->forward(activations, trace);
  }
  return activations;
}

double TransformerModel::flops() const {
  double total = 0.0;
  for (const auto& block : blocks_) total += block->flops();
  return total;
}

ModelInferenceEstimate estimate_model_inference(const TransformerModel& model,
                                                const FabricConfig& fabric) {
  // Every block shares the config, hence the kernel shapes.
  const auto block_trace = kernel_trace(model.config());
  std::vector<KernelCall> trace;
  for (int l = 0; l < model.layers(); ++l) {
    trace.insert(trace.end(), block_trace.begin(), block_trace.end());
  }
  const ScalableComputeFabric scf(fabric);
  const auto stats = scf.run_trace(trace);

  ModelInferenceEstimate est;
  est.seconds_per_sequence = stats.seconds(fabric.cu.fclk_mhz);
  est.sequences_per_second =
      est.seconds_per_sequence > 0 ? 1.0 / est.seconds_per_sequence : 0.0;
  est.gflops_sustained = stats.gflops(fabric.cu.fclk_mhz);
  est.joules_per_sequence = stats.energy_pj * 1e-12;
  est.power_w = scf.average_power_w(stats);
  return est;
}

}  // namespace icsc::scf
