// BFloat16 transformer encoder block (Sec. VII).
//
// The CU accelerates "all major Transformer blocks" in bf16. This module
// implements the block numerically -- QKV projection, multi-head
// attention, softmax, residual + layer norm, GELU FFN -- with bf16 storage
// rounding on every tensor (fp32 accumulation inside GEMMs, matching the
// tensor engine). Numerical correctness is validated against an fp32
// reference in the test suite.
//
// The CU and fabric models time the block from its kernel sequence with
// sizes, which depends on the config alone: kernel_trace() builds it
// without weights or numerics, and forward() appends the same list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace icsc::scf {

struct TransformerConfig {
  std::size_t seq_len = 128;
  std::size_t d_model = 256;
  std::size_t heads = 4;
  std::size_t d_ff = 1024;
  std::uint64_t seed = 99;
  bool use_bf16 = true;  // false = fp32 reference path

  /// Optional replacement for the attention softmax -- the hook through
  /// which the Sec. V approximate softmax ([18]) plugs into the Sec. VII
  /// transformer (e.g. icsc::approx::softmax_approx wrapped in a lambda).
  /// forward() calls it once per attention row from several pool threads
  /// at once, so it must be safe to call concurrently, and it must return
  /// one probability per logit.
  using SoftmaxFn = std::vector<float> (*)(std::span<const float>);
  SoftmaxFn softmax_override = nullptr;

  std::size_t d_head() const { return d_model / heads; }

  /// Throws core::Error unless seq_len, d_model and d_ff are non-zero and
  /// heads is non-zero and divides d_model.
  void validate() const;
};

/// One kernel invocation in the block, for the performance models.
struct KernelCall {
  enum class Kind { kGemm, kSoftmax, kLayerNorm, kGelu, kResidualAdd };
  Kind kind = Kind::kGemm;
  std::size_t m = 0, k = 0, n = 0;  // GEMM dims, or elements in m for others
  std::string label;
};

/// Core-op and FLOP costs per element of a non-GEMM kernel on the CU
/// cores; zero for GEMMs, which the tensor engine times from (m, k, n).
struct ElementCost {
  double ops;
  double flops;
};

constexpr ElementCost element_cost(KernelCall::Kind kind) {
  switch (kind) {
    case KernelCall::Kind::kSoftmax: return {6.0, 5.0};
    case KernelCall::Kind::kLayerNorm: return {5.0, 4.0};
    case KernelCall::Kind::kGelu: return {8.0, 6.0};
    case KernelCall::Kind::kResidualAdd: return {1.0, 1.0};
    case KernelCall::Kind::kGemm: return {0.0, 0.0};
  }
  return {0.0, 0.0};
}

/// Every kernel invocation of one block forward pass, in execution order,
/// from the config alone (no weights are drawn). Throws core::Error when
/// config.validate() does.
std::vector<KernelCall> kernel_trace(const TransformerConfig& config);

/// Weights of one encoder block (deterministically initialised).
class TransformerBlock {
public:
  /// Throws core::Error when config.validate() does.
  explicit TransformerBlock(const TransformerConfig& config);

  /// Runs the block on input [seq_len, d_model]; returns same shape.
  /// Rows fan out over the core/parallel pool and every GEMM row runs on
  /// core::simd::panel_axpy_f32, so the output bits depend on neither the
  /// thread count nor the SIMD ISA. Throws core::Error on any other input
  /// shape, or when softmax_override returns a row of another length.
  /// Appends kernel_trace(config()) to `trace` when non-null.
  core::TensorF forward(const core::TensorF& input,
                        std::vector<KernelCall>* trace = nullptr) const;

  /// Total FLOPs of one forward pass (GEMMs dominate).
  double flops() const;

  const TransformerConfig& config() const { return config_; }

private:
  TransformerConfig config_;
  // Packed [in, out] after the bf16 rounding: the right operand of x W.
  core::TensorF wq_, wk_, wv_, wo_;   // [d_model, d_model]
  core::TensorF w1_, w2_;             // FFN [d_model, d_ff], [d_ff, d_model]
  std::vector<float> ln1_gain_, ln1_bias_, ln2_gain_, ln2_bias_;
};

/// Max absolute elementwise difference between two equal-shape tensors;
/// throws core::Error when the shapes differ.
float max_abs_diff(const core::TensorF& a, const core::TensorF& b);

/// Deterministic random activations [seq_len, d_model] in [-1, 1].
core::TensorF make_activations(const TransformerConfig& config,
                               std::uint64_t seed);

}  // namespace icsc::scf
