// Multi-block transformer models on the SCF (Sec. VII system level).
//
// The CU/fabric models time one encoder block; real inference runs stacks
// of them (BERT-class encoders). TransformerModel composes L blocks with
// distinct weights, provides the end-to-end numerical forward pass, and
// rolls the full-model kernel trace into fabric-level latency/energy so
// "blocks/s" becomes "sequences/s" at model scale.
#pragma once

#include <memory>

#include "scf/fabric.hpp"
#include "scf/transformer.hpp"

namespace icsc::scf {

class TransformerModel {
public:
  /// `layers` encoder blocks sharing one TransformerConfig (weights differ
  /// per block via the seed).
  TransformerModel(const TransformerConfig& config, int layers);

  /// Full numerical forward pass through all blocks.
  core::TensorF forward(const core::TensorF& input,
                        std::vector<KernelCall>* trace = nullptr) const;

  double flops() const;
  int layers() const { return static_cast<int>(blocks_.size()); }
  const TransformerConfig& config() const { return config_; }

private:
  TransformerConfig config_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

/// End-to-end inference estimate of a model on a fabric configuration.
struct ModelInferenceEstimate {
  double seconds_per_sequence = 0.0;
  double sequences_per_second = 0.0;
  double gflops_sustained = 0.0;
  double joules_per_sequence = 0.0;
  double power_w = 0.0;
};

/// Times layers() copies of kernel_trace(config()) on the fabric; no
/// numeric forward runs. Throws core::Error when the fabric config does not
/// validate.
ModelInferenceEstimate estimate_model_inference(const TransformerModel& model,
                                                const FabricConfig& fabric);

}  // namespace icsc::scf
