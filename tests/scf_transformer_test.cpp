#include "scf/transformer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"

namespace icsc::scf {
namespace {

TransformerConfig tiny_config(bool bf16) {
  TransformerConfig cfg;
  cfg.seq_len = 16;
  cfg.d_model = 32;
  cfg.heads = 4;
  cfg.d_ff = 64;
  cfg.use_bf16 = bf16;
  return cfg;
}

TEST(Transformer, OutputShape) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 3);
  const auto y = block.forward(x);
  EXPECT_EQ(y.dim(0), 16u);
  EXPECT_EQ(y.dim(1), 32u);
}

TEST(Transformer, Deterministic) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 5);
  EXPECT_EQ(block.forward(x), block.forward(x));
}

TEST(Transformer, Bf16TracksFp32Reference) {
  // The bf16 path must agree with fp32 to within bf16 resolution:
  // layer-norm keeps activations O(1), so absolute error ~ a few ULP of
  // bf16 (2^-8) accumulated across the block.
  auto cfg_fp = tiny_config(false);
  auto cfg_bf = tiny_config(true);
  const TransformerBlock fp_block(cfg_fp);
  const TransformerBlock bf_block(cfg_bf);
  const auto x = make_activations(cfg_fp, 7);
  const auto y_fp = fp_block.forward(x);
  const auto y_bf = bf_block.forward(x);
  const float diff = max_abs_diff(y_fp, y_bf);
  EXPECT_GT(diff, 0.0F);   // bf16 must actually round
  EXPECT_LT(diff, 0.25F);  // but stay close on normalised activations
}

TEST(Transformer, LayerNormKeepsActivationsNormalized) {
  const TransformerBlock block(tiny_config(true));
  const auto x = make_activations(block.config(), 9);
  const auto y = block.forward(x);
  // Each output row passed a layer norm with unit gain: row mean ~ 0,
  // row variance ~ 1 (bf16 rounding noise allowed).
  for (std::size_t r = 0; r < y.dim(0); ++r) {
    float mean = 0.0F;
    for (std::size_t c = 0; c < y.dim(1); ++c) mean += y(r, c);
    mean /= static_cast<float>(y.dim(1));
    EXPECT_NEAR(mean, 0.0F, 0.05F);
    float var = 0.0F;
    for (std::size_t c = 0; c < y.dim(1); ++c) {
      var += (y(r, c) - mean) * (y(r, c) - mean);
    }
    var /= static_cast<float>(y.dim(1));
    EXPECT_NEAR(var, 1.0F, 0.2F);
  }
}

TEST(Transformer, TraceCoversAllKernels) {
  const auto cfg = tiny_config(true);
  const TransformerBlock block(cfg);
  std::vector<KernelCall> trace;
  block.forward(make_activations(cfg, 11), &trace);
  int gemms = 0, softmaxes = 0, lns = 0, gelus = 0, residuals = 0;
  for (const auto& call : trace) {
    switch (call.kind) {
      case KernelCall::Kind::kGemm: ++gemms; break;
      case KernelCall::Kind::kSoftmax: ++softmaxes; break;
      case KernelCall::Kind::kLayerNorm: ++lns; break;
      case KernelCall::Kind::kGelu: ++gelus; break;
      case KernelCall::Kind::kResidualAdd: ++residuals; break;
    }
  }
  // 4 projections + 2 GEMMs per head + 2 FFN.
  EXPECT_EQ(gemms, 4 + 2 * static_cast<int>(cfg.heads) + 2);
  EXPECT_EQ(softmaxes, static_cast<int>(cfg.heads));
  EXPECT_EQ(lns, 2);
  EXPECT_EQ(gelus, 1);
  EXPECT_EQ(residuals, 2);
}

TEST(Transformer, TraceGemmFlopsMatchAnalytic) {
  const auto cfg = tiny_config(true);
  const TransformerBlock block(cfg);
  std::vector<KernelCall> trace;
  block.forward(make_activations(cfg, 13), &trace);
  double gemm_flops = 0.0;
  for (const auto& call : trace) {
    if (call.kind == KernelCall::Kind::kGemm) {
      gemm_flops += 2.0 * static_cast<double>(call.m) * call.k * call.n;
    }
  }
  EXPECT_NEAR(gemm_flops, block.flops(), 1e-6);
}

struct GoldenCall {
  KernelCall::Kind kind;
  std::size_t m, k, n;
  const char* label;
};

void expect_trace(const std::vector<KernelCall>& trace,
                  const std::vector<GoldenCall>& golden) {
  ASSERT_EQ(trace.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i) + " (" + golden[i].label + ")");
    EXPECT_EQ(trace[i].kind, golden[i].kind);
    EXPECT_EQ(trace[i].m, golden[i].m);
    EXPECT_EQ(trace[i].k, golden[i].k);
    EXPECT_EQ(trace[i].n, golden[i].n);
    EXPECT_EQ(trace[i].label, golden[i].label);
  }
}

TEST(Transformer, KernelTraceGolden) {
  // The full kernel list the fabric models consume, pinned for the default
  // block and for the 8-head 256x512 block of the Fig. 8 study.
  using K = KernelCall::Kind;
  const auto trace_of = [](const TransformerConfig& cfg) {
    std::vector<KernelCall> trace;
    TransformerBlock(cfg).forward(make_activations(cfg, 1), &trace);
    return trace;
  };
  expect_trace(trace_of(TransformerConfig{}),
               {{K::kGemm, 128, 256, 256, "q_proj"},
                {K::kGemm, 128, 256, 256, "k_proj"},
                {K::kGemm, 128, 256, 256, "v_proj"},
                {K::kGemm, 128, 64, 128, "attn_scores_h0"},
                {K::kSoftmax, 16384, 0, 0, "softmax_h0"},
                {K::kGemm, 128, 128, 64, "attn_context_h0"},
                {K::kGemm, 128, 64, 128, "attn_scores_h1"},
                {K::kSoftmax, 16384, 0, 0, "softmax_h1"},
                {K::kGemm, 128, 128, 64, "attn_context_h1"},
                {K::kGemm, 128, 64, 128, "attn_scores_h2"},
                {K::kSoftmax, 16384, 0, 0, "softmax_h2"},
                {K::kGemm, 128, 128, 64, "attn_context_h2"},
                {K::kGemm, 128, 64, 128, "attn_scores_h3"},
                {K::kSoftmax, 16384, 0, 0, "softmax_h3"},
                {K::kGemm, 128, 128, 64, "attn_context_h3"},
                {K::kGemm, 128, 256, 256, "out_proj"},
                {K::kResidualAdd, 32768, 0, 0, "residual1"},
                {K::kLayerNorm, 32768, 0, 0, "ln1"},
                {K::kGemm, 128, 256, 1024, "ffn_up"},
                {K::kGelu, 131072, 0, 0, "gelu"},
                {K::kGemm, 128, 1024, 256, "ffn_down"},
                {K::kResidualAdd, 32768, 0, 0, "residual2"},
                {K::kLayerNorm, 32768, 0, 0, "ln2"}});

  TransformerConfig large;
  large.seq_len = 256;
  large.d_model = 512;
  large.heads = 8;
  large.d_ff = 2048;
  expect_trace(trace_of(large),
               {{K::kGemm, 256, 512, 512, "q_proj"},
                {K::kGemm, 256, 512, 512, "k_proj"},
                {K::kGemm, 256, 512, 512, "v_proj"},
                {K::kGemm, 256, 64, 256, "attn_scores_h0"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h0"},
                {K::kGemm, 256, 256, 64, "attn_context_h0"},
                {K::kGemm, 256, 64, 256, "attn_scores_h1"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h1"},
                {K::kGemm, 256, 256, 64, "attn_context_h1"},
                {K::kGemm, 256, 64, 256, "attn_scores_h2"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h2"},
                {K::kGemm, 256, 256, 64, "attn_context_h2"},
                {K::kGemm, 256, 64, 256, "attn_scores_h3"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h3"},
                {K::kGemm, 256, 256, 64, "attn_context_h3"},
                {K::kGemm, 256, 64, 256, "attn_scores_h4"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h4"},
                {K::kGemm, 256, 256, 64, "attn_context_h4"},
                {K::kGemm, 256, 64, 256, "attn_scores_h5"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h5"},
                {K::kGemm, 256, 256, 64, "attn_context_h5"},
                {K::kGemm, 256, 64, 256, "attn_scores_h6"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h6"},
                {K::kGemm, 256, 256, 64, "attn_context_h6"},
                {K::kGemm, 256, 64, 256, "attn_scores_h7"},
                {K::kSoftmax, 65536, 0, 0, "softmax_h7"},
                {K::kGemm, 256, 256, 64, "attn_context_h7"},
                {K::kGemm, 256, 512, 512, "out_proj"},
                {K::kResidualAdd, 131072, 0, 0, "residual1"},
                {K::kLayerNorm, 131072, 0, 0, "ln1"},
                {K::kGemm, 256, 512, 2048, "ffn_up"},
                {K::kGelu, 524288, 0, 0, "gelu"},
                {K::kGemm, 256, 2048, 512, "ffn_down"},
                {K::kResidualAdd, 131072, 0, 0, "residual2"},
                {K::kLayerNorm, 131072, 0, 0, "ln2"}});
}

TEST(Transformer, KernelTraceFlopsMatchBlock) {
  // The GEMM shapes of kernel_trace() against TransformerBlock::flops(),
  // an independent closed form, over a seeded sweep of valid configs.
  core::Rng rng(2024);
  for (int trial = 0; trial < 64; ++trial) {
    TransformerConfig cfg;
    cfg.seq_len = static_cast<std::size_t>(rng.range(1, 96));
    cfg.heads = static_cast<std::size_t>(rng.range(1, 8));
    cfg.d_model = cfg.heads * static_cast<std::size_t>(rng.range(1, 24));
    cfg.d_ff = static_cast<std::size_t>(rng.range(1, 160));
    SCOPED_TRACE("seq " + std::to_string(cfg.seq_len) + ", d_model " +
                 std::to_string(cfg.d_model) + ", heads " +
                 std::to_string(cfg.heads) + ", d_ff " +
                 std::to_string(cfg.d_ff));
    double gemm_flops = 0.0;
    for (const auto& call : kernel_trace(cfg)) {
      if (call.kind == KernelCall::Kind::kGemm) {
        gemm_flops += 2.0 * static_cast<double>(call.m) * call.k * call.n;
      }
    }
    EXPECT_DOUBLE_EQ(gemm_flops, TransformerBlock(cfg).flops());
  }
}

TEST(Transformer, FlopsScaleWithModel) {
  auto small = tiny_config(true);
  auto big = small;
  big.d_model = 64;
  big.d_ff = 128;
  EXPECT_GT(TransformerBlock(big).flops(), 2.0 * TransformerBlock(small).flops());
}

/// FNV-1a over the bit patterns of every output element, row-major.
std::uint64_t output_bits(const core::TensorF& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : t.data()) {
    h ^= std::bit_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A stand-in attention softmax for the override hook: base-2 exponent,
/// so its bits differ from the built-in softmax's.
std::vector<float> softmax_base2(std::span<const float> logits) {
  float peak = logits[0];
  for (const float v : logits) peak = std::max(peak, v);
  std::vector<float> out(logits.size());
  float sum = 0.0F;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp2(logits[i] - peak);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
  return out;
}

struct GoldenForward {
  const char* name;
  TransformerConfig config;
  std::uint64_t bits;  // output_bits of forward(make_activations(config, 1))
};

std::vector<GoldenForward> golden_forwards() {
  const auto block = [](std::size_t s, std::size_t d, std::size_t heads,
                        std::size_t ff, bool bf16) {
    TransformerConfig cfg;
    cfg.seq_len = s;
    cfg.d_model = d;
    cfg.heads = heads;
    cfg.d_ff = ff;
    cfg.use_bf16 = bf16;
    return cfg;
  };
  TransformerConfig overridden = block(24, 48, 2, 80, true);
  overridden.softmax_override = softmax_base2;
  return {{"e2ebench shape, bf16", block(64, 128, 4, 512, true),
           0xba22811334cba325ULL},
          {"e2ebench shape, fp32", block(64, 128, 4, 512, false),
           0x8605fa089c67ee9fULL},
          {"odd shape, fp32", block(17, 36, 3, 50, false),
           0xcc1d445253f96d7fULL},
          {"softmax override, bf16", overridden, 0x55c5fe2a42fb3d25ULL}};
}

void expect_golden_bits(const std::string& where) {
  for (const auto& golden : golden_forwards()) {
    const TransformerBlock block(golden.config);
    const auto y = block.forward(make_activations(golden.config, 1));
    EXPECT_EQ(output_bits(y), golden.bits)
        << where << ", " << golden.name << ": got 0x" << std::hex
        << output_bits(y);
  }
}

TEST(Transformer, ForwardBitsGolden) {
  // Output bits of four blocks, pinned: every GEMM output sums its k
  // products in order from 0.0F in fp32, so no loop order, vector width
  // or thread count may move a bit. The softmax and GELU also feed the
  // bits through libm's expf, exp2f and tanhf; the pins are glibc's.
  expect_golden_bits("default ISA and pool");
}

TEST(Transformer, ForwardBitsIndependentOfIsaAndThreads) {
  core::set_parallel_threads(4);
  for (const auto isa : {core::simd::Isa::kScalar, core::simd::Isa::kSse4,
                         core::simd::Isa::kAvx2, core::simd::Isa::kNeon}) {
    if (!core::simd::isa_supported(isa)) continue;
    core::simd::set_active_isa(isa);
    const std::string name = core::simd::isa_name(isa);
    {
      core::ScopedSerial serial;
      expect_golden_bits(name + ", serial");
    }
    expect_golden_bits(name + ", 4-thread pool");
  }
  core::simd::set_active_isa(core::simd::detected_isa());
  core::set_parallel_threads(0);
}

TEST(Transformer, AttentionMixesSequencePositions) {
  // Changing one input row must influence other output rows (through
  // attention), unlike a pure MLP.
  const auto cfg = tiny_config(false);
  const TransformerBlock block(cfg);
  auto x = make_activations(cfg, 17);
  const auto y0 = block.forward(x);
  for (std::size_t c = 0; c < cfg.d_model; ++c) x(0, c) += 2.0F;
  const auto y1 = block.forward(x);
  float other_row_change = 0.0F;
  for (std::size_t c = 0; c < cfg.d_model; ++c) {
    other_row_change =
        std::max(other_row_change, std::abs(y1(5, c) - y0(5, c)));
  }
  EXPECT_GT(other_row_change, 1e-4F);
}

}  // namespace
}  // namespace icsc::scf
