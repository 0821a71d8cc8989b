#include "scf/transformer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

#include "core/bfloat16.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"

namespace icsc::scf {

namespace {

void round_tensor_bf16(core::TensorF& t, bool enabled) {
  if (!enabled) return;
  t.transform([](float v) { return core::bf16_round(v); });
}

/// C = A B^T with A [m, k], B [n, k] (weight layout), fp32 accumulation.
core::TensorF gemm_bt(const core::TensorF& a, const core::TensorF& b,
                      bool bf16) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  assert(b.dim(1) == k);
  core::TensorF c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0F;  // fp32 accumulator, as in the tensor engine
      for (std::size_t p = 0; p < k; ++p) acc += a(i, p) * b(j, p);
      c(i, j) = acc;
    }
  }
  round_tensor_bf16(c, bf16);
  return c;
}

/// C = A B with A [m, k], B [k, n].
core::TensorF gemm(const core::TensorF& a, const core::TensorF& b, bool bf16) {
  auto c = core::matmul(a, b);
  round_tensor_bf16(c, bf16);
  return c;
}

void softmax_rows(core::TensorF& t, bool bf16,
                  TransformerConfig::SoftmaxFn override_fn) {
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    if (override_fn != nullptr) {
      const auto probs = override_fn(
          std::span<const float>(&t(r, 0), cols));
      for (std::size_t c = 0; c < cols; ++c) t(r, c) = probs[c];
      continue;
    }
    float peak = t(r, 0);
    for (std::size_t c = 1; c < cols; ++c) peak = std::max(peak, t(r, c));
    float sum = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      t(r, c) = std::exp(t(r, c) - peak);
      sum += t(r, c);
    }
    for (std::size_t c = 0; c < cols; ++c) t(r, c) /= sum;
  }
  round_tensor_bf16(t, bf16);
}

void layer_norm(core::TensorF& t, const std::vector<float>& gain,
                const std::vector<float>& bias, bool bf16) {
  const std::size_t rows = t.dim(0), cols = t.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    float mean = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) mean += t(r, c);
    mean /= static_cast<float>(cols);
    float var = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      const float d = t(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv = 1.0F / std::sqrt(var + 1e-5F);
    for (std::size_t c = 0; c < cols; ++c) {
      t(r, c) = (t(r, c) - mean) * inv * gain[c] + bias[c];
    }
  }
  round_tensor_bf16(t, bf16);
}

void gelu(core::TensorF& t, bool bf16) {
  t.transform([](float v) {
    // tanh approximation, as hardware GELU units implement it.
    const float inner = 0.7978845608F * (v + 0.044715F * v * v * v);
    return 0.5F * v * (1.0F + std::tanh(inner));
  });
  round_tensor_bf16(t, bf16);
}

core::TensorF random_weights(std::size_t out, std::size_t in, core::Rng& rng) {
  core::TensorF w({out, in});
  const double sigma = 1.0 / std::sqrt(static_cast<double>(in));
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, sigma));
  return w;
}

}  // namespace

void TransformerConfig::validate() const {
  if (seq_len == 0 || d_model == 0 || d_ff == 0) {
    throw core::Error("scf::TransformerConfig",
                      "seq_len, d_model and d_ff must be non-zero",
                      std::to_string(seq_len) + " x " +
                          std::to_string(d_model) + ", d_ff " +
                          std::to_string(d_ff));
  }
  if (heads == 0 || d_model % heads != 0) {
    throw core::Error("scf::TransformerConfig",
                      "heads must be non-zero and divide d_model",
                      "d_model " + std::to_string(d_model) + ", heads " +
                          std::to_string(heads));
  }
}

std::vector<KernelCall> kernel_trace(const TransformerConfig& config) {
  config.validate();
  using Kind = KernelCall::Kind;
  const std::size_t s = config.seq_len;
  const std::size_t d = config.d_model;
  const std::size_t dh = config.d_head();
  const std::size_t ff = config.d_ff;
  std::vector<KernelCall> trace;
  const auto gemm = [&trace](std::size_t m, std::size_t k, std::size_t n,
                             std::string label) {
    trace.push_back({Kind::kGemm, m, k, n, std::move(label)});
  };
  const auto other = [&trace](Kind kind, std::size_t elements,
                              std::string label) {
    trace.push_back({kind, elements, 0, 0, std::move(label)});
  };
  gemm(s, d, d, "q_proj");
  gemm(s, d, d, "k_proj");
  gemm(s, d, d, "v_proj");
  for (std::size_t head = 0; head < config.heads; ++head) {
    const std::string h = std::to_string(head);
    gemm(s, dh, s, "attn_scores_h" + h);
    other(Kind::kSoftmax, s * s, "softmax_h" + h);
    gemm(s, s, dh, "attn_context_h" + h);
  }
  gemm(s, d, d, "out_proj");
  other(Kind::kResidualAdd, s * d, "residual1");
  other(Kind::kLayerNorm, s * d, "ln1");
  gemm(s, d, ff, "ffn_up");
  other(Kind::kGelu, s * ff, "gelu");
  gemm(s, ff, d, "ffn_down");
  other(Kind::kResidualAdd, s * d, "residual2");
  other(Kind::kLayerNorm, s * d, "ln2");
  return trace;
}

TransformerBlock::TransformerBlock(const TransformerConfig& config)
    : config_(config) {
  config.validate();
  core::Rng rng(config.seed);
  wq_ = random_weights(config.d_model, config.d_model, rng);
  wk_ = random_weights(config.d_model, config.d_model, rng);
  wv_ = random_weights(config.d_model, config.d_model, rng);
  wo_ = random_weights(config.d_model, config.d_model, rng);
  w1_ = random_weights(config.d_ff, config.d_model, rng);
  w2_ = random_weights(config.d_model, config.d_ff, rng);
  ln1_gain_.assign(config.d_model, 1.0F);
  ln1_bias_.assign(config.d_model, 0.0F);
  ln2_gain_.assign(config.d_model, 1.0F);
  ln2_bias_.assign(config.d_model, 0.0F);
  if (config.use_bf16) {
    for (auto* w : {&wq_, &wk_, &wv_, &wo_, &w1_, &w2_}) {
      round_tensor_bf16(*w, true);
    }
  }
}

core::TensorF TransformerBlock::forward(const core::TensorF& input,
                                        std::vector<KernelCall>* trace) const {
  const std::size_t s = config_.seq_len;
  const std::size_t d = config_.d_model;
  const std::size_t h = config_.heads;
  const std::size_t dh = config_.d_head();
  const bool bf16 = config_.use_bf16;
  if (input.shape() != core::Shape{s, d}) {
    throw core::Error("scf::TransformerBlock::forward",
                      "input must be [seq_len, d_model]",
                      "got " + core::shape_to_string(input.shape()) +
                          ", want " + core::shape_to_string({s, d}));
  }

  core::TensorF x = input;
  round_tensor_bf16(x, bf16);

  // QKV projections.
  const auto q = gemm_bt(x, wq_, bf16);
  const auto k_mat = gemm_bt(x, wk_, bf16);
  const auto v = gemm_bt(x, wv_, bf16);

  // Attention per head.
  core::TensorF context({s, d});
  const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
  for (std::size_t head = 0; head < h; ++head) {
    const std::size_t off = head * dh;
    core::TensorF qh({s, dh}), kh({s, dh}), vh({s, dh});
    for (std::size_t r = 0; r < s; ++r) {
      for (std::size_t c = 0; c < dh; ++c) {
        qh(r, c) = q(r, off + c);
        kh(r, c) = k_mat(r, off + c);
        vh(r, c) = v(r, off + c);
      }
    }
    auto scores = gemm_bt(qh, kh, bf16);  // [s, s]
    scores *= scale;
    round_tensor_bf16(scores, bf16);
    softmax_rows(scores, bf16, config_.softmax_override);
    const auto ctx = gemm(scores, vh, bf16);  // [s, dh]
    for (std::size_t r = 0; r < s; ++r) {
      for (std::size_t c = 0; c < dh; ++c) context(r, off + c) = ctx(r, c);
    }
  }

  auto attn_out = gemm_bt(context, wo_, bf16);

  // Residual + layer norm.
  attn_out += x;
  round_tensor_bf16(attn_out, bf16);
  layer_norm(attn_out, ln1_gain_, ln1_bias_, bf16);

  // FFN.
  auto hidden = gemm_bt(attn_out, w1_, bf16);  // [s, d_ff]
  gelu(hidden, bf16);
  auto out = gemm_bt(hidden, w2_, bf16);  // [s, d]
  out += attn_out;
  round_tensor_bf16(out, bf16);
  layer_norm(out, ln2_gain_, ln2_bias_, bf16);
  if (trace) {
    auto calls = kernel_trace(config_);
    trace->insert(trace->end(), std::make_move_iterator(calls.begin()),
                  std::make_move_iterator(calls.end()));
  }
  return out;
}

double TransformerBlock::flops() const {
  const double s = static_cast<double>(config_.seq_len);
  const double d = static_cast<double>(config_.d_model);
  const double ff = static_cast<double>(config_.d_ff);
  // 4 projections + 2 attention GEMMs + 2 FFN GEMMs.
  return 2.0 * (4.0 * s * d * d + 2.0 * s * s * d + 2.0 * s * d * ff);
}

float max_abs_diff(const core::TensorF& a, const core::TensorF& b) {
  if (!a.same_shape(b)) {
    throw core::Error("scf::max_abs_diff", "shape mismatch",
                      core::shape_to_string(a.shape()) + " vs " +
                          core::shape_to_string(b.shape()));
  }
  float worst = 0.0F;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

core::TensorF make_activations(const TransformerConfig& config,
                               std::uint64_t seed) {
  core::Rng rng(seed);
  core::TensorF x({config.seq_len, config.d_model});
  for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

}  // namespace icsc::scf
