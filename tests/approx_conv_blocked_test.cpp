// Equivalence tests for the blocked convolution micro-kernels: the im2col
// row-panel fast paths must be bit-identical to the retained scalar
// reference loops on every shape class -- including k = 1, even k, and
// inputs narrower than the kernel -- for the float engine, the approximate
// integer datapath (whose adders are non-associative, so even a reordered
// reduction would show), and the HTCONV foveated transposed convolution.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "approx/approx_conv.hpp"
#include "approx/conv.hpp"
#include "approx/conv_kernels.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/trace.hpp"

namespace icsc::approx {
namespace {

FeatureMap random_map(std::size_t c, std::size_t h, std::size_t w,
                      std::uint64_t seed) {
  core::Rng rng(seed);
  FeatureMap map({c, h, w});
  for (auto& v : map.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return map;
}

ConvLayer random_layer(std::size_t cout, std::size_t cin, std::size_t k,
                       bool relu, std::uint64_t seed) {
  core::Rng rng(seed);
  ConvLayer layer;
  layer.weights = core::TensorF({cout, cin, k, k});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias.resize(cout);
  for (auto& b : layer.bias) b = static_cast<float>(rng.uniform(-0.2, 0.2));
  layer.relu = relu;
  return layer;
}

/// On-grid twins of random_map / random_layer: inputs pass through
/// quantize_map and biases sit on the Q7.8 x Q3.12 accumulator grid
/// (multiples of 2^-20), so the quantised applies take the exact integer
/// path instead of the f64 fallback.
FeatureMap on_grid_map(std::size_t c, std::size_t h, std::size_t w,
                       std::uint64_t seed, double scale = 1.0) {
  core::Rng rng(seed);
  FeatureMap map({c, h, w});
  for (auto& v : map.data()) {
    v = static_cast<float>(rng.uniform(-scale, scale));
  }
  quantize_map(map, QuantConfig{});
  return map;
}

ConvLayer on_grid_layer(std::size_t cout, std::size_t cin, std::size_t k,
                        bool relu, std::uint64_t seed) {
  auto layer = random_layer(cout, cin, k, relu, seed);
  for (auto& b : layer.bias) {
    b = static_cast<float>(std::round(b * 0x1p20) * 0x1p-20);
  }
  return layer;
}

template <typename A, typename B>
void expect_same_bits(const A& fast, const B& ref, const std::string& what) {
  ASSERT_TRUE(fast.same_shape(ref)) << what;
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fast[i]),
              std::bit_cast<std::uint32_t>(ref[i]))
        << what << " flat=" << i << " " << fast[i] << " vs " << ref[i];
  }
}

void expect_same_image(const core::Image& fast, const core::Image& ref,
                       const std::string& what) {
  expect_same_bits(fast.tensor(), ref.tensor(), what);
}

/// Shape classes the micro-kernel has to get right: odd k (interior +
/// borders), k = 1 (all interior), even k (asymmetric padding), w < k
/// (empty panel, scalar fallback), single-row and single-column maps.
struct ShapeCase {
  std::size_t cout, cin, k, h, w;
};

const ShapeCase kShapes[] = {
    {3, 2, 3, 6, 7},   // classic odd kernel
    {2, 3, 1, 5, 5},   // 1x1: every column is interior
    {2, 2, 4, 6, 8},   // even kernel: pad = 2, asymmetric clip
    {2, 2, 5, 4, 3},   // w < k: panel is empty, scalar path everywhere
    {1, 1, 3, 1, 9},   // single row
    {1, 2, 3, 7, 1},   // single column (w < k as well)
    {4, 1, 7, 9, 9},   // large kernel relative to the map
};

TEST(BlockedConv, BitIdenticalToReferenceAcrossShapes) {
  for (const auto& s : kShapes) {
    for (const bool relu : {false, true}) {
      for (const bool quant : {false, true}) {
        const auto layer =
            random_layer(s.cout, s.cin, s.k, relu, 17 * s.k + s.w);
        const auto input = random_map(s.cin, s.h, s.w, 23 * s.h + s.k);
        QuantConfig config;
        config.enabled = quant;
        core::OpCounter fast_ops;
        core::OpCounter ref_ops;
        const auto fast = layer.apply(input, config, &fast_ops);
        const auto ref = layer.apply_reference(input, config, &ref_ops);
        ASSERT_TRUE(fast.same_shape(ref));
        for (std::size_t i = 0; i < fast.numel(); ++i) {
          // Bit identity, not closeness: both paths must run the same
          // (ic, u, v) accumulation order.
          ASSERT_EQ(fast[i], ref[i])
              << "k=" << s.k << " h=" << s.h << " w=" << s.w
              << " relu=" << relu << " quant=" << quant << " flat=" << i;
        }
        EXPECT_EQ(fast_ops.count("mac"), ref_ops.count("mac"));
      }
    }
  }
}

TEST(BlockedConv, OnGridBitIdenticalToReferenceAcrossShapes) {
  // The quantised case of the test above on inputs the integer path
  // accepts: every shape class (k = 1, even k, w < k, one row, one column,
  // cin = 1, odd cin) must still match the scalar oracle bit for bit.
  const QuantConfig config;
  for (const auto& s : kShapes) {
    for (const bool relu : {false, true}) {
      const auto layer =
          on_grid_layer(s.cout, s.cin, s.k, relu, 19 * s.k + s.w);
      for (const double scale : {1.0, 100.0}) {
        const auto input =
            on_grid_map(s.cin, s.h, s.w, 29 * s.h + s.k, scale);
        core::OpCounter fast_ops;
        core::OpCounter ref_ops;
        const auto fast = layer.apply(input, config, &fast_ops);
        const auto ref = layer.apply_reference(input, config, &ref_ops);
        expect_same_bits(fast, ref,
                         "k=" + std::to_string(s.k) +
                             " h=" + std::to_string(s.h) +
                             " w=" + std::to_string(s.w) +
                             " relu=" + std::to_string(relu) +
                             " scale=" + std::to_string(scale));
        EXPECT_EQ(fast_ops.count("mac"), ref_ops.count("mac"));
      }
    }
  }
}

/// Layers that took the exact integer path while `fn` ran: the
/// conv.int16_layers trace counter, or -1 when tracing is compiled out.
template <typename Fn>
int integer_layers(Fn&& fn) {
#if ICSC_TRACE
  namespace trace = core::trace;
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::reset();
  fn();
  const auto counters = trace::counters();
  trace::reset();
  trace::set_enabled(was_enabled);
  const auto it = counters.find("conv.int16_layers");
  return it == counters.end() ? 0 : static_cast<int>(it->second);
#else
  fn();
  return -1;
#endif
}

/// Edge cases of the integer path's eligibility and overflow bound, each
/// checked against the scalar oracle. The bound is L = floor((2^31 - 1) /
/// (2 max|a| max|w|)) taps between int64 flushes, over raw Q values.
/// `integer` says which path the ConvLayer must take.
struct EdgeCase {
  const char* name;
  ConvLayer layer;
  FeatureMap input;
  bool integer;
};

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  {
    // -128.0 (raw -32768) meets -8.0 (raw -32768): 2 * 2^15 * 2^15 = 2^31,
    // so L = 0 and the layer takes the f64 path.
    auto layer = on_grid_layer(3, 2, 3, false, 101);
    layer.weights(1, 0, 1, 1) = -8.0F;
    auto input = on_grid_map(2, 6, 7, 103);
    input(0, 2, 3) = -128.0F;
    cases.push_back({"L=0", layer, input, false});
  }
  {
    // Activations near +-128 and weights near +-8: L = 1, so every one of
    // the 4 pairs x 9 taps flushes, and the sums reach 2^36, far past
    // float's exact range.
    auto layer = on_grid_layer(5, 8, 3, false, 107);
    core::Rng rng(109);
    for (auto& v : layer.weights.data()) {
      v = static_cast<float>(rng.uniform(-7.99, 7.99));
    }
    layer.weights(0, 0, 0, 0) = 7.99975586F;  // raw 32767
    auto input = on_grid_map(8, 5, 21, 113, 127.99);
    input(0, 0, 0) = -128.0F;
    cases.push_back({"L=1", layer, input, true});
  }
  {
    // L = 8 against 36 taps: flushes inside the tap loop and at its end.
    auto layer = on_grid_layer(4, 8, 3, true, 127);
    core::Rng rng(131);
    for (auto& v : layer.weights.data()) {
      v = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
    cases.push_back(
        {"L=8", layer, on_grid_map(8, 6, 19, 137, 40.0), true});
  }
  {
    // A bias off the accumulator grid sends the layer to the f64 path.
    auto layer = on_grid_layer(3, 3, 3, true, 139);
    layer.bias[1] = 0.1F;
    cases.push_back(
        {"bias off grid", layer, on_grid_map(3, 6, 9, 149), false});
  }
  {
    // An on-grid bias of 1.5 * 2^31 is 1.5 * 2^51 accumulator units, past
    // the sum bound even with every weight 0: the f64 path runs.
    auto layer = on_grid_layer(2, 1, 3, false, 167);
    for (auto& v : layer.weights.data()) v = 0.0F;
    layer.bias = {3221225472.0F, -0.25F};
    cases.push_back({"bias 1.5 * 2^31", layer, on_grid_map(1, 4, 5, 173),
                     false});
  }
  {
    // A 0 x 0 kernel: no taps, every output is its bias.
    cases.push_back({"k=0", on_grid_layer(2, 3, 0, false, 157),
                     on_grid_map(3, 4, 5, 163), true});
  }
  {
    // A -0.0 bias: on the grid, and the quantiser maps -0.0 to +0.0.
    auto layer = on_grid_layer(2, 1, 1, false, 151);
    layer.bias = {-0.0F, -0.0F};
    layer.weights(0, 0, 0, 0) = -0.5F;
    FeatureMap input({1, 2, 3});  // all +0.0
    input(0, 1, 1) = -0.0F;
    cases.push_back({"-0.0 bias", layer, input, true});
  }
  return cases;
}

TEST(BlockedConv, IntegerPathEdgeCasesMatchReference) {
  const QuantConfig config;
  for (const auto& c : edge_cases()) {
    FeatureMap fast;
    const int layers =
        integer_layers([&] { fast = c.layer.apply(c.input, config); });
    if (layers >= 0) {
      EXPECT_EQ(layers, c.integer ? 1 : 0) << c.name;
    }
    expect_same_bits(fast, c.layer.apply_reference(c.input, config), c.name);
    TconvLayer tconv;
    tconv.weights = core::TensorF({c.layer.in_channels(), 4, 4});
    const std::size_t n = c.layer.weights.numel();
    for (std::size_t i = 0; i < tconv.weights.numel(); ++i) {
      tconv.weights[i] = n > 0 ? c.layer.weights[i % n] : 0.25F;
    }
    tconv.weights[0] = -8.0F;
    const auto fovea =
        FovealRegion::centered(c.input.dim(1), c.input.dim(2), 0.3);
    expect_same_image(
        tconv.apply_foveated(c.input, fovea, config),
        tconv.apply_foveated_reference(c.input, fovea, config),
        std::string("htconv ") + c.name);
  }
}

TEST(BlockedConv, OffGridInputTakesTheF64Path) {
  // One input value between grid points, or a NaN, and the layer runs in
  // f64; the same input on the grid runs on the integer path.
  const QuantConfig config;
  const auto layer = on_grid_layer(2, 3, 3, true, 157);
  auto input = on_grid_map(3, 5, 6, 163);
  EXPECT_NE(integer_layers([&] { layer.apply(input, config); }), 0);
  for (const float bad : {0.5F + 0x1p-10F, std::nanf("")}) {
    input(2, 4, 5) = bad;
    const int layers = integer_layers([&] {
      expect_same_bits(layer.apply(input, config),
                       layer.apply_reference(input, config), "off grid");
    });
    if (layers >= 0) {
      EXPECT_EQ(layers, 0);
    }
  }
}

TEST(BlockedConv, InteriorSpansMatchShapes) {
  // Odd k: interior columns are those with no horizontal clipping.
  EXPECT_EQ(conv_interior(7, 3).begin, 1u);
  EXPECT_EQ(conv_interior(7, 3).count, 5u);
  // k = 1 never clips.
  EXPECT_EQ(conv_interior(5, 1).begin, 0u);
  EXPECT_EQ(conv_interior(5, 1).count, 5u);
  // Even k: pad = k/2 on the left, k - 1 - pad on the right.
  EXPECT_EQ(conv_interior(8, 4).begin, 2u);
  EXPECT_EQ(conv_interior(8, 4).count, 5u);
  // Narrower than the kernel: empty interior.
  EXPECT_EQ(conv_interior(3, 5).count, 0u);
  EXPECT_EQ(conv_interior(1, 3).count, 0u);
}

TEST(BlockedConv, ApproxDatapathBitIdenticalAcrossOperators) {
  const QuantConfig quant;  // integer datapath requires quantisation
  struct OpCase {
    ApproxArithConfig::Multiplier mul;
    ApproxArithConfig::Adder add;
  };
  const OpCase operators[] = {
      {ApproxArithConfig::Multiplier::kExact, ApproxArithConfig::Adder::kExact},
      {ApproxArithConfig::Multiplier::kTruncated,
       ApproxArithConfig::Adder::kExact},
      {ApproxArithConfig::Multiplier::kMitchell,
       ApproxArithConfig::Adder::kExact},
      // LOA accumulation is non-associative AND non-commutative in the
      // operand roles; any reordering of the fast path would surface here.
      {ApproxArithConfig::Multiplier::kExact, ApproxArithConfig::Adder::kLoa},
      {ApproxArithConfig::Multiplier::kTruncated,
       ApproxArithConfig::Adder::kLoa},
  };
  for (const auto& s : kShapes) {
    const auto layer = random_layer(s.cout, s.cin, s.k, true, 31 * s.k + s.h);
    const auto input = random_map(s.cin, s.h, s.w, 37 * s.w + s.k);
    for (const auto& op : operators) {
      ApproxArithConfig arith;
      arith.multiplier = op.mul;
      arith.adder = op.add;
      core::OpCounter fast_ops;
      core::OpCounter ref_ops;
      const auto fast = apply_approx(layer, input, quant, arith, &fast_ops);
      const auto ref =
          apply_approx_reference(layer, input, quant, arith, &ref_ops);
      ASSERT_TRUE(fast.same_shape(ref));
      for (std::size_t i = 0; i < fast.numel(); ++i) {
        ASSERT_EQ(fast[i], ref[i])
            << "k=" << s.k << " w=" << s.w << " mul="
            << static_cast<int>(op.mul) << " add=" << static_cast<int>(op.add)
            << " flat=" << i;
      }
      EXPECT_EQ(fast_ops.count("mac"), ref_ops.count("mac"));
    }
  }
}

TEST(BlockedConv, FoveatedTconvBitIdenticalToReference) {
  core::Rng rng(5);
  for (const std::size_t t : {2u, 4u, 6u}) {
    for (const std::size_t h : {1u, 5u, 8u}) {
      const std::size_t w = h + 2;
      TconvLayer layer;
      layer.weights = core::TensorF({2, t, t});
      for (auto& v : layer.weights.data()) {
        v = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      layer.bias = 0.1F;
      const auto input = random_map(2, h, w, 41 * t + h);
      for (const double fraction : {0.0, 0.25, 1.0}) {
        const auto fovea = FovealRegion::centered(h, w, fraction);
        const QuantConfig config;
        core::OpCounter fast_ops;
        core::OpCounter ref_ops;
        const auto fast = layer.apply_foveated(input, fovea, config, &fast_ops);
        const auto ref =
            layer.apply_foveated_reference(input, fovea, config, &ref_ops);
        ASSERT_EQ(fast.height(), ref.height());
        ASSERT_EQ(fast.width(), ref.width());
        for (std::size_t r = 0; r < fast.height(); ++r) {
          for (std::size_t c = 0; c < fast.width(); ++c) {
            ASSERT_EQ(fast.at(r, c), ref.at(r, c))
                << "t=" << t << " h=" << h << " fraction=" << fraction
                << " at (" << r << ", " << c << ")";
          }
        }
        EXPECT_EQ(fast_ops.count("mac"), ref_ops.count("mac"));
        EXPECT_EQ(fast_ops.count("interp_add"), ref_ops.count("interp_add"));
      }
    }
  }
}

TEST(BlockedConv, OnGridFoveatedTconvBitIdenticalToReference) {
  // HTCONV on integer-path inputs: odd and even kernels (9 is FSRCNN's),
  // an odd channel count (a channel without a partner), frames narrower
  // than the kernel's column shifts, and a bias off every grid (the HTCONV
  // adds it after the exact sum).
  core::Rng rng(7);
  for (const std::size_t t : {1u, 2u, 4u, 5u, 9u}) {
    for (const std::size_t cin : {1u, 3u}) {
      for (const std::size_t h : {1u, 5u, 8u}) {
        const std::size_t w = h + 2;
        TconvLayer layer;
        layer.weights = core::TensorF({cin, t, t});
        for (auto& v : layer.weights.data()) {
          v = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        layer.bias = 0.1F;
        const auto input = on_grid_map(cin, h, w, 43 * t + h + cin);
        for (const double fraction : {0.0, 0.25, 1.0}) {
          const auto fovea = FovealRegion::centered(h, w, fraction);
          const QuantConfig config;
          core::OpCounter fast_ops;
          core::OpCounter ref_ops;
          const auto fast =
              layer.apply_foveated(input, fovea, config, &fast_ops);
          const auto ref =
              layer.apply_foveated_reference(input, fovea, config, &ref_ops);
          expect_same_image(fast, ref,
                            "t=" + std::to_string(t) +
                                " cin=" + std::to_string(cin) +
                                " h=" + std::to_string(h) +
                                " fraction=" + std::to_string(fraction));
          EXPECT_EQ(fast_ops.count("mac"), ref_ops.count("mac"));
          EXPECT_EQ(fast_ops.count("interp_add"),
                    ref_ops.count("interp_add"));
        }
      }
    }
  }
}

TEST(BlockedConv, IsaSweepBitIdenticalToScalarRun) {
  // Every ISA the CPU supports must reproduce the forced-scalar outputs
  // bit for bit -- float engine, approximate integer datapath (truncated
  // multiplier + LOA adder, the worst case for reordering), and the
  // foveated HTCONV path.
  namespace simd = core::simd;
  const auto layer = random_layer(4, 3, 3, true, 71);
  const auto input = random_map(3, 9, 11, 73);
  const QuantConfig quant;
  ApproxArithConfig arith;
  arith.multiplier = ApproxArithConfig::Multiplier::kTruncated;
  arith.adder = ApproxArithConfig::Adder::kLoa;
  TconvLayer tconv;
  tconv.weights = core::TensorF({3, 4, 4});
  core::Rng rng(79);
  for (auto& v : tconv.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  tconv.bias = 0.1F;
  const auto fovea = FovealRegion::centered(9, 11, 0.3);
  // The same layers on integer-path inputs; 37 columns leave a tail below
  // one vector on every ISA.
  const auto grid_layer = on_grid_layer(5, 3, 3, true, 71);
  const auto grid_input = on_grid_map(3, 9, 37, 73);
  const auto grid_fovea = FovealRegion::centered(9, 37, 0.3);

  simd::set_active_isa(simd::Isa::kScalar);
  const auto conv_oracle = layer.apply(input, quant);
  const auto approx_oracle = apply_approx(layer, input, quant, arith);
  const auto tconv_oracle = tconv.apply_foveated(input, fovea, quant);
  const auto grid_conv_oracle = grid_layer.apply(grid_input, quant);
  const auto grid_tconv_oracle =
      tconv.apply_foveated(grid_input, grid_fovea, quant);

  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse4,
                              simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    ASSERT_EQ(simd::set_active_isa(isa), isa);
    const auto conv = layer.apply(input, quant);
    const auto approx = apply_approx(layer, input, quant, arith);
    const auto foveated = tconv.apply_foveated(input, fovea, quant);
    expect_same_bits(grid_layer.apply(grid_input, quant), grid_conv_oracle,
                     std::string("on-grid conv ") + simd::isa_name(isa));
    expect_same_image(tconv.apply_foveated(grid_input, grid_fovea, quant),
                      grid_tconv_oracle,
                      std::string("on-grid htconv ") + simd::isa_name(isa));
    for (std::size_t i = 0; i < conv.numel(); ++i) {
      ASSERT_EQ(conv[i], conv_oracle[i]) << simd::isa_name(isa) << " " << i;
    }
    for (std::size_t i = 0; i < approx.numel(); ++i) {
      ASSERT_EQ(approx[i], approx_oracle[i]) << simd::isa_name(isa) << " " << i;
    }
    ASSERT_EQ(foveated.height(), tconv_oracle.height());
    ASSERT_EQ(foveated.width(), tconv_oracle.width());
    for (std::size_t r = 0; r < foveated.height(); ++r) {
      for (std::size_t c = 0; c < foveated.width(); ++c) {
        ASSERT_EQ(foveated.at(r, c), tconv_oracle.at(r, c))
            << simd::isa_name(isa) << " at (" << r << ", " << c << ")";
      }
    }
  }
  simd::set_active_isa(simd::detected_isa());
}

TEST(BlockedConv, PanelReusePreservesState) {
  // One panel object serves many rows (the per-worker scratch pattern):
  // rebuilding for a new row must fully reset geometry and taps.
  const auto wide = random_map(2, 4, 9, 3);
  const auto narrow = random_map(2, 4, 2, 4);
  ConvRowPanel panel;
  build_conv_row_panel(wide, 1, 3, panel);
  EXPECT_FALSE(panel.empty());
  const std::size_t wide_taps = panel.taps;
  build_conv_row_panel(narrow, 1, 3, panel);
  EXPECT_TRUE(panel.empty());  // w < k leaves no interior columns
  build_conv_row_panel(wide, 0, 3, panel);
  EXPECT_FALSE(panel.empty());
  // Top row loses the vertically clipped taps relative to an interior row.
  EXPECT_LT(panel.taps, wide_taps);
}

}  // namespace
}  // namespace icsc::approx
