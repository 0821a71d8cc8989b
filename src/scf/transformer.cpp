#include "scf/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>

#include "core/bfloat16.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"

namespace icsc::scf {

namespace {

/// bf16 storage rounding of one value when enabled; identity on the fp32
/// path.
float round_storage(float v, bool bf16) {
  return bf16 ? core::bf16_round(v) : v;
}

/// Multiply-accumulates per pool chunk: enough work to repay one chunk
/// claim, small enough to spread a 64-row GEMM over the pool.
constexpr std::size_t kChunkMacs = std::size_t{64} * 1024;

/// Rows per pool chunk for rows of `macs_per_row` multiply-accumulates.
std::size_t row_grain(std::size_t macs_per_row) {
  return std::max<std::size_t>(1, kChunkMacs / macs_per_row);
}

/// One GEMM output row c[0, n) = a[0, k) B, for B [k, n] with row stride
/// ldb. Each output sums its k products in order from 0.0F in fp32, as the
/// tensor engine accumulates, then takes the storage rounding.
void gemm_row(const float* a, const float* b, std::size_t ldb, std::size_t k,
              float* c, std::size_t n, bool bf16) {
  std::fill_n(c, n, 0.0F);
  core::simd::panel_axpy_f32(a, b, ldb, k, c, n);
  for (std::size_t j = 0; j < n; ++j) c[j] = round_storage(c[j], bf16);
}

/// Softmax of one attention row in place, then the storage rounding.
void softmax_row(std::span<float> row, bool bf16,
                 TransformerConfig::SoftmaxFn override_fn) {
  if (override_fn != nullptr) {
    const auto probs = override_fn(row);
    if (probs.size() != row.size()) {
      throw core::Error("scf::TransformerBlock::forward",
                        "softmax_override must return one value per logit",
                        std::to_string(probs.size()) + " for " +
                            std::to_string(row.size()));
    }
    std::copy(probs.begin(), probs.end(), row.begin());
  } else {
    float peak = row[0];
    for (const float v : row) peak = std::max(peak, v);
    float sum = 0.0F;
    for (auto& v : row) {
      v = std::exp(v - peak);
      sum += v;
    }
    for (auto& v : row) v /= sum;
  }
  for (auto& v : row) v = round_storage(v, bf16);
}

/// row = layer_norm(row + residual) in place, with the storage rounding
/// after the residual add and after the norm.
void residual_layer_norm(std::span<float> row, const float* residual,
                         const std::vector<float>& gain,
                         const std::vector<float>& bias, bool bf16) {
  const std::size_t cols = row.size();
  float mean = 0.0F;
  for (std::size_t c = 0; c < cols; ++c) {
    row[c] = round_storage(row[c] + residual[c], bf16);
    mean += row[c];
  }
  mean /= static_cast<float>(cols);
  float var = 0.0F;
  for (const float v : row) {
    const float d = v - mean;
    var += d * d;
  }
  var /= static_cast<float>(cols);
  const float inv = 1.0F / std::sqrt(var + 1e-5F);
  for (std::size_t c = 0; c < cols; ++c) {
    row[c] = round_storage((row[c] - mean) * inv * gain[c] + bias[c], bf16);
  }
}

/// GELU in place, then the storage rounding.
void gelu(std::span<float> row, bool bf16) {
  for (auto& v : row) {
    // tanh approximation, as hardware GELU units implement it.
    const float inner = 0.7978845608F * (v + 0.044715F * v * v * v);
    v = round_storage(0.5F * v * (1.0F + std::tanh(inner)), bf16);
  }
}

/// Draws an [out, in] weight matrix (the draw order is part of the seeded
/// contract), takes the storage rounding, and packs it [in, out] as the
/// right operand of gemm_row().
core::TensorF packed_weights(std::size_t out, std::size_t in, core::Rng& rng,
                             bool bf16) {
  core::TensorF packed({in, out});
  const double sigma = 1.0 / std::sqrt(static_cast<double>(in));
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t i = 0; i < in; ++i) {
      const auto v = static_cast<float>(rng.normal(0.0, sigma));
      packed(i, o) = round_storage(v, bf16);
    }
  }
  return packed;
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
  const std::size_t d = config.d_model;
  const bool bf16 = config.use_bf16;
  wq_ = packed_weights(d, d, rng, bf16);
  wk_ = packed_weights(d, d, rng, bf16);
  wv_ = packed_weights(d, d, rng, bf16);
  wo_ = packed_weights(d, d, rng, bf16);
  w1_ = packed_weights(config.d_ff, d, rng, bf16);
  w2_ = packed_weights(d, config.d_ff, rng, bf16);
  ln1_gain_.assign(d, 1.0F);
  ln1_bias_.assign(d, 0.0F);
  ln2_gain_.assign(d, 1.0F);
  ln2_bias_.assign(d, 0.0F);
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

  // Rounded input, then Q, K and V in columns [0, d), [d, 2d) and [2d, 3d)
  // of qkv. K is also packed [d, s], so head h's K^T is the [dh, s] row
  // block at row h * dh; Q and V are read in place.
  core::TensorF x({s, d});
  core::TensorF qkv({s, 3 * d});
  core::TensorF k_t({d, s});
  core::parallel_for(0, s, row_grain(3 * d * d),
                     [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        x(r, c) = round_storage(input(r, c), bf16);
      }
      gemm_row(&x(r, 0), &wq_(0, 0), d, d, &qkv(r, 0), d, bf16);
      gemm_row(&x(r, 0), &wk_(0, 0), d, d, &qkv(r, d), d, bf16);
      gemm_row(&x(r, 0), &wv_(0, 0), d, d, &qkv(r, 2 * d), d, bf16);
      for (std::size_t c = 0; c < d; ++c) k_t(c, r) = qkv(r, d + c);
    }
  });

  // Attention. A (head, query row) pair needs only its head's K^T and V,
  // so the pairs fan out over the pool and run their two GEMM rows inline:
  // a nested parallel_for on the calling thread would fan out again.
  core::TensorF context({s, d});
  const float scale = 1.0F / std::sqrt(static_cast<float>(dh));
  core::parallel_for(0, h * s, row_grain(2 * s * dh),
                     [&](std::size_t begin, std::size_t end) {
    std::vector<float> scores(s);
    for (std::size_t pair = begin; pair < end; ++pair) {
      const std::size_t off = pair / s * dh;
      const std::size_t r = pair % s;
      gemm_row(&qkv(r, off), &k_t(off, 0), s, dh, scores.data(), s, bf16);
      for (auto& v : scores) v = round_storage(v * scale, bf16);
      softmax_row(scores, bf16, config_.softmax_override);
      gemm_row(scores.data(), &qkv(0, 2 * d + off), 3 * d, s, &context(r, off),
               dh, bf16);
    }
  });

  // Output projection, residual + layer norm, FFN, residual + layer norm:
  // every step is row-local, so the rows fan out over the pool once.
  const std::size_t ff = config_.d_ff;
  core::TensorF out({s, d});
  core::parallel_for(0, s, row_grain(d * d + 2 * d * ff),
                     [&](std::size_t begin, std::size_t end) {
    std::vector<float> attn(d), hidden(ff);
    for (std::size_t r = begin; r < end; ++r) {
      gemm_row(&context(r, 0), &wo_(0, 0), d, d, attn.data(), d, bf16);
      residual_layer_norm(attn, &x(r, 0), ln1_gain_, ln1_bias_, bf16);
      gemm_row(attn.data(), &w1_(0, 0), ff, d, hidden.data(), ff, bf16);
      gelu(hidden, bf16);
      gemm_row(hidden.data(), &w2_(0, 0), d, ff, &out(r, 0), d, bf16);
      residual_layer_norm(std::span<float>(&out(r, 0), d), attn.data(),
                          ln2_gain_, ln2_bias_, bf16);
    }
  });
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
