// Adversarial-input and failure-injection tests: the framework must fail
// predictably (never crash, never hang, never return garbage silently) on
// malformed or extreme inputs across all subsystems.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "approx/approx_conv.hpp"
#include "approx/conv.hpp"
#include "approx/fsrcnn.hpp"
#include "approx/softmax.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/ecc.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "hls/dse.hpp"
#include "hls/scheduling.hpp"
#include "hls/sparta.hpp"
#include "core/nn.hpp"
#include "core/sampling.hpp"
#include "imc/characterization.hpp"
#include "imc/crossbar.hpp"
#include "imc/dimc.hpp"
#include "imc/pipeline.hpp"
#include "imc/program_verify.hpp"
#include "imc/tile.hpp"
#include "scf/compute_unit.hpp"
#include "scf/fabric.hpp"
#include "scf/transformer.hpp"

namespace {

using namespace icsc;

TEST(Robustness, RotationDecodeOnRandomGarbage) {
  // Decoding arbitrary base strings must never crash and always produce
  // exactly the requested byte count.
  core::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    hetero::dna::Strand garbage(rng.below(300));
    for (auto& b : garbage) {
      b = static_cast<hetero::dna::Base>(rng.below(4));
    }
    const auto decoded = hetero::dna::decode_rotation(garbage, 20);
    EXPECT_EQ(decoded.size(), 20u);
  }
}

TEST(Robustness, EccDecodeWithWrongStrandsOnly) {
  // Feeding completely unrelated strands: everything is an unrepairable
  // erasure, zero-filled payload, no crash.
  core::Rng rng(3);
  std::vector<hetero::dna::Strand> junk(10);
  for (auto& strand : junk) {
    strand.resize(120);
    for (auto& b : strand) b = static_cast<hetero::dna::Base>(rng.below(4));
  }
  const auto result =
      hetero::dna::decode_payload_ecc(junk, 256, 16, hetero::dna::EccParams{});
  EXPECT_EQ(result.payload.size(), 256u);
  EXPECT_GT(result.missing_after_repair, 0u);
}

TEST(Robustness, ClusterEmptyReadSet) {
  const auto result =
      hetero::dna::cluster_reads({}, hetero::dna::ClusterParams{});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.pair_comparisons, 0u);
}

TEST(Robustness, ConsensusEmptyCluster) {
  const auto consensus =
      hetero::dna::call_consensus({}, hetero::dna::Cluster{});
  EXPECT_TRUE(consensus.empty());
}

TEST(Robustness, ConsensusRejectsOutOfRangeReadIndex) {
  std::vector<hetero::dna::Read> reads(3);
  for (auto& read : reads) {
    read.bases = hetero::dna::strand_from_string("ACGTACGT");
  }
  hetero::dna::Cluster cluster;
  cluster.read_indices = {0, 3, 1};
  EXPECT_THROW(hetero::dna::call_consensus(reads, cluster), core::Error);
  EXPECT_THROW(hetero::dna::call_all_consensus(reads, {{{0, 1}, {}}, cluster}),
               core::Error);
  cluster.read_indices = {7};  // a single member is checked too
  EXPECT_THROW(hetero::dna::call_consensus(reads, cluster), core::Error);
  cluster.read_indices = {0, 2, 1};
  EXPECT_EQ(hetero::dna::call_consensus(reads, cluster), reads[0].bases);
}

TEST(Robustness, EvaluateClustersRejectsOutOfRangeOrigin) {
  std::vector<hetero::dna::Read> reads(3);
  reads[0].origin = 0;
  reads[1].origin = 1;
  reads[2].origin = 2;
  hetero::dna::ClusterResult result;
  result.clusters = {{{0, 1}, {}}, {{2}, {}}};
  EXPECT_THROW(hetero::dna::evaluate_clusters(result, reads, 2), core::Error);
  const auto quality = hetero::dna::evaluate_clusters(result, reads, 3);
  EXPECT_DOUBLE_EQ(quality.purity, 0.5);
  result.clusters[1].read_indices = {3};  // read index out of range
  EXPECT_THROW(hetero::dna::evaluate_clusters(result, reads, 3), core::Error);
  result.clusters[1].read_indices.clear();  // empty cluster
  EXPECT_THROW(hetero::dna::evaluate_clusters(result, reads, 3), core::Error);
}

TEST(Robustness, DnaDecodersRejectZeroSizes) {
  EXPECT_THROW(hetero::dna::decode_payload({}, 16, 0), core::Error);
  const auto set = hetero::dna::encode_payload_ecc(
      std::vector<std::uint8_t>(40, 7), 16, hetero::dna::EccParams{});
  hetero::dna::EccParams no_groups;
  no_groups.group_size = 0;
  EXPECT_THROW(hetero::dna::decode_payload_ecc(set.strands, 40, 16, no_groups),
               core::Error);
  EXPECT_THROW(hetero::dna::decode_payload_ecc(set.strands, 40, 0,
                                               hetero::dna::EccParams{}),
               core::Error);
  EXPECT_EQ(hetero::dna::decode_payload_ecc(set.strands, 40, 16,
                                            hetero::dna::EccParams{})
                .payload,
            std::vector<std::uint8_t>(40, 7));
}

TEST(Robustness, SoftmaxExtremeLogits) {
  const std::vector<float> logits{-1e30F, 1e30F, 0.0F};
  const auto exact = approx::softmax_exact(logits);
  for (const float p : exact) EXPECT_FALSE(std::isnan(p));
  const auto approx_probs = approx::softmax_approx(logits);
  for (const float p : approx_probs) EXPECT_FALSE(std::isnan(p));
}

TEST(Robustness, SoftmaxSingleElement) {
  const std::vector<float> one{42.0F};
  EXPECT_NEAR(approx::softmax_exact(one)[0], 1.0F, 1e-6);
  EXPECT_GT(approx::softmax_approx(one)[0], 0.5F);
}

TEST(Robustness, CrossbarAllZeroWeights) {
  core::TensorF zeros({4, 4}, 0.0F);
  imc::Crossbar xbar(zeros, imc::CrossbarConfig{});
  std::vector<float> x(4, 1.0F);
  const auto y = xbar.matvec(x);
  for (const float v : y) {
    EXPECT_FALSE(std::isnan(v));
    EXPECT_LT(std::abs(v), 1.0F);  // differential pairs mostly cancel
  }
}

TEST(Robustness, CrossbarZeroInput) {
  core::Rng rng(5);
  core::TensorF w({4, 4});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::Crossbar xbar(w, imc::CrossbarConfig{});
  std::vector<float> zero(4, 0.0F);
  const auto y = xbar.matvec(zero);
  for (const float v : y) EXPECT_FALSE(std::isnan(v));
}

TEST(Robustness, SchedulerEmptyKernel) {
  hls::Kernel empty("empty");
  const auto s = hls::schedule_list(empty, hls::ResourceBudget{});
  EXPECT_EQ(s.makespan, 0);
  EXPECT_TRUE(hls::schedule_is_valid(empty, s, hls::ResourceBudget{}));
}

TEST(Robustness, SchedulerSingleConstant) {
  hls::Kernel k("konst");
  k.constant();
  const auto s = hls::schedule_list(k, hls::ResourceBudget{});
  EXPECT_EQ(s.makespan, 0);
}

TEST(Robustness, KernelRejectsOperandsThatDoNotPrecedeTheirConsumer) {
  // Release builds used to skip the operand-order assert: a self or
  // forward reference was stored, and critical_path and both schedulers
  // then read past the end of their per-op tables.
  hls::Kernel k("malformed");
  const auto a = k.input();
  EXPECT_THROW(k.add_op(hls::OpKind::kAdd, {a, 1}), core::Error);  // itself
  EXPECT_THROW(k.add(a, 7), core::Error);                          // forward
  EXPECT_THROW(k.output(99), core::Error);
  EXPECT_EQ(k.size(), 1u);  // nothing was stored
  k.output(k.mul(a, a));
  EXPECT_TRUE(k.is_well_formed());
  EXPECT_EQ(k.critical_path(), hls::op_latency(hls::OpKind::kMul));
  EXPECT_EQ(hls::schedule_list(k, hls::ResourceBudget{}).makespan,
            k.critical_path());
}

TEST(Robustness, AlapRejectsDeadlineBelowCriticalPath) {
  // A deadline below the critical path used to yield negative start
  // cycles (and negative mobilities) in release builds.
  const auto kernel = hls::make_fir_kernel(4);
  const int critical = kernel.critical_path();
  EXPECT_THROW(hls::schedule_alap(kernel, critical - 1), core::Error);
  EXPECT_THROW(hls::schedule_alap(kernel, -5), core::Error);
  EXPECT_EQ(hls::schedule_alap(kernel, critical).makespan, critical);
  EXPECT_EQ(hls::schedule_alap(hls::Kernel("empty"), 0).makespan, 0);
}

TEST(Robustness, CuDegenerateGemmShapes) {
  const scf::ComputeUnit cu;
  for (const auto& [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{0, 5, 5},
        {5, 0, 5},
        {5, 5, 0}}) {
    const auto stats = cu.run_gemm(m, k, n);
    EXPECT_EQ(stats.flops, 0u);
    EXPECT_EQ(stats.cycles, 0u);
  }
  EXPECT_EQ(cu.run_elementwise(0, 5.0, 5.0).cycles, 0u);
}

TEST(Robustness, ConvLayerOnTinyImages) {
  approx::ConvLayer layer;
  layer.weights = core::TensorF({1, 1, 5, 5}, 0.04F);
  layer.bias = {0.0F};
  // Kernel larger than the image: padding covers everything.
  approx::FeatureMap input({1, 2, 2}, 0.5F);
  const auto out = layer.apply(input, approx::QuantConfig{});
  EXPECT_EQ(out.dim(1), 2u);
  for (const float v : out.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(Robustness, ConvLayerInputShapeThrows) {
  // A feature map with the wrong rank or channel count would index past
  // the input; every entry point rejects it in every build type.
  approx::ConvLayer conv;
  conv.weights = core::TensorF({2, 3, 3, 3}, 0.1F);  // 3 in, 2 out channels
  conv.bias = {0.0F, 0.0F};
  approx::TconvLayer tconv;
  tconv.weights = core::TensorF({3, 4, 4}, 0.1F);  // 3 in channels
  const approx::QuantConfig quant;
  const auto fovea = approx::FovealRegion::full(6, 6);
  const std::vector<approx::FeatureMap> bad = {
      approx::FeatureMap({2, 6, 6}, 0.5F),     // too few channels
      approx::FeatureMap({4, 6, 6}, 0.5F),     // too many channels
      approx::FeatureMap({3, 36}, 0.5F),       // rank 2
      approx::FeatureMap({1, 3, 6, 6}, 0.5F),  // rank 4
  };
  const auto expect_shape_error = [](const auto& call, const char* where) {
    try {
      call();
      ADD_FAILURE() << where << " accepted a bad input";
    } catch (const core::Error& e) {
      EXPECT_EQ(e.where(), where);
    }
  };
  for (const auto& input : bad) {
    SCOPED_TRACE(core::shape_to_string(input.shape()));
    expect_shape_error([&] { conv.apply(input, quant); },
                       "approx::ConvLayer::apply");
    expect_shape_error([&] { conv.apply_reference(input, quant); },
                       "approx::ConvLayer::apply_reference");
    expect_shape_error([&] { tconv.apply_exact(input, quant); },
                       "approx::TconvLayer::apply_exact");
    expect_shape_error([&] { tconv.apply_foveated(input, fovea, quant); },
                       "approx::TconvLayer::apply_foveated");
    expect_shape_error(
        [&] { tconv.apply_foveated_reference(input, fovea, quant); },
        "approx::TconvLayer::apply_foveated_reference");
    expect_shape_error([&] { approx::apply_approx(conv, input, quant, {}); },
                       "approx::apply_approx");
    expect_shape_error(
        [&] { approx::apply_approx_reference(conv, input, quant, {}); },
        "approx::apply_approx_reference");
  }
  // The matching shape still runs.
  const approx::FeatureMap good({3, 6, 6}, 0.5F);
  EXPECT_EQ(conv.apply(good, quant).shape(), (core::Shape{2, 6, 6}));
  EXPECT_EQ(tconv.apply_foveated(good, fovea, quant).height(), 12u);
}

TEST(Robustness, ApproxConvRequiresQuantisation) {
  // The approximate operators are integer hardware: without quantisation
  // both datapaths throw in every build type.
  approx::ConvLayer conv;
  conv.weights = core::TensorF({1, 1, 3, 3}, 0.1F);
  conv.bias = {0.0F};
  const approx::FeatureMap input({1, 6, 6}, 0.5F);
  approx::QuantConfig float_path;
  float_path.enabled = false;
  EXPECT_THROW(approx::apply_approx(conv, input, float_path, {}), core::Error);
  EXPECT_THROW(approx::apply_approx_reference(conv, input, float_path, {}),
               core::Error);
  EXPECT_EQ(approx::apply_approx(conv, input, approx::QuantConfig{}, {}).shape(),
            (core::Shape{1, 6, 6}));
}

TEST(Robustness, ApproxConfigsValidated) {
  // FsrcnnConfig: d = 0 or s = 0 wrote into an empty weight tensor, and a
  // negative m or a negative or NaN detail_scale was accepted.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct BadModel {
    const char* field;
    approx::FsrcnnConfig config;
  };
  std::vector<BadModel> models;
  const auto model_with = [&models](const char* field, auto edit) {
    approx::FsrcnnConfig config;
    edit(config);
    models.push_back({field, config});
  };
  model_with("d", [](auto& c) { c.d = 0; });
  model_with("d", [](auto& c) { c.d = -3; });
  model_with("s", [](auto& c) { c.s = 0; });
  model_with("m", [](auto& c) { c.m = -1; });
  model_with("detail_scale", [&](auto& c) { c.detail_scale = nan; });
  model_with("detail_scale", [](auto& c) { c.detail_scale = -0.5; });
  model_with("detail_scale", [](auto& c) {
    c.detail_scale = std::numeric_limits<double>::infinity();
  });
  for (const auto& b : models) {
    SCOPED_TRACE(b.field);
    try {
      approx::Fsrcnn model(b.config);
      ADD_FAILURE() << "Fsrcnn accepted it";
    } catch (const core::Error& e) {
      EXPECT_EQ(e.where(), "approx::FsrcnnConfig");
      EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
          << e.what();
    }
  }

  // QuantConfig: a negative or wide bit width reached an undefined shift.
  // Every entry point that quantises rejects it, with quantisation on or
  // off.
  struct BadQuant {
    const char* field;
    int approx::QuantConfig::*member;
    int value;
  };
  const BadQuant quants[] = {
      {"activation_int_bits", &approx::QuantConfig::activation_int_bits, -1},
      {"activation_frac_bits", &approx::QuantConfig::activation_frac_bits, -1},
      {"activation_int_bits + activation_frac_bits",
       &approx::QuantConfig::activation_frac_bits, 70},
      {"activation_int_bits + activation_frac_bits",
       &approx::QuantConfig::activation_int_bits,
       std::numeric_limits<int>::max()},
      {"weight_int_bits", &approx::QuantConfig::weight_int_bits, -2},
      {"weight_frac_bits", &approx::QuantConfig::weight_frac_bits, -1},
      {"weight_int_bits + weight_frac_bits",
       &approx::QuantConfig::weight_int_bits, 60},
      {"weight_int_bits + weight_frac_bits",
       &approx::QuantConfig::weight_frac_bits, 28},
  };
  approx::ConvLayer conv;
  conv.weights = core::TensorF({2, 1, 3, 3}, 0.1F);
  conv.bias = {0.0F, 0.0F};
  approx::TconvLayer tconv;
  tconv.weights = core::TensorF({2, 4, 4}, 0.1F);
  const approx::FeatureMap input({1, 6, 6}, 0.5F);
  const approx::FeatureMap hidden({2, 6, 6}, 0.5F);
  const auto fovea = approx::FovealRegion::full(6, 6);
  const approx::Fsrcnn model(approx::FsrcnnConfig{});
  const core::Image lowres(6, 6, 0.5F);
  for (const auto& b : quants) {
    for (const bool enabled : {true, false}) {
      SCOPED_TRACE(std::string(b.field) + " = " + std::to_string(b.value) +
                   (enabled ? " on" : " off"));
      approx::QuantConfig quant;
      quant.enabled = enabled;
      quant.*b.member = b.value;
      try {
        quant.validate();
        ADD_FAILURE() << "validate() accepted it";
      } catch (const core::Error& e) {
        EXPECT_EQ(e.where(), "approx::QuantConfig");
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << e.what();
      }
      approx::FeatureMap map = input;
      EXPECT_THROW(approx::quantize_map(map, quant), core::Error);
      EXPECT_THROW((void)quant.quantize_activation(0.5F), core::Error);
      EXPECT_THROW((void)quant.quantize_weight(0.5F), core::Error);
      EXPECT_THROW((void)conv.apply(input, quant), core::Error);
      EXPECT_THROW((void)conv.apply_reference(input, quant), core::Error);
      EXPECT_THROW((void)tconv.apply_exact(hidden, quant), core::Error);
      EXPECT_THROW((void)tconv.apply_foveated(hidden, fovea, quant),
                   core::Error);
      EXPECT_THROW((void)tconv.apply_foveated_reference(hidden, fovea, quant),
                   core::Error);
      EXPECT_THROW((void)approx::apply_layer_stack({&conv, 1}, tconv, input,
                                                   fovea, quant),
                   core::Error);
      EXPECT_THROW((void)approx::apply_approx(conv, input, quant, {}),
                   core::Error);
      EXPECT_THROW((void)approx::apply_approx_reference(conv, input, quant, {}),
                   core::Error);
      EXPECT_THROW((void)model.upscale(lowres, quant), core::Error);
    }
  }

  // The range ends are accepted: zero-width fields and int + frac = 30.
  approx::FsrcnnConfig smallest;
  smallest.d = smallest.s = 1;
  smallest.m = 0;
  smallest.detail_scale = 0.0;
  EXPECT_NO_THROW(approx::Fsrcnn{smallest});
  approx::QuantConfig widest;
  widest.activation_int_bits = 15;
  widest.activation_frac_bits = 15;
  widest.weight_int_bits = 30;
  widest.weight_frac_bits = 0;
  EXPECT_NO_THROW(widest.validate());
  EXPECT_NO_THROW((void)conv.apply(input, widest));
  approx::QuantConfig zero;
  zero.activation_int_bits = zero.activation_frac_bits = 0;
  zero.weight_int_bits = zero.weight_frac_bits = 0;
  EXPECT_NO_THROW((void)conv.apply(input, zero));
}

TEST(Robustness, ApproxArithWidthsValidated) {
  // A width of 64 shifted a 64-bit mask by 64 (undefined) in the scalar
  // operators, while the SIMD path clamped it to 63, so apply_approx and
  // apply_approx_reference disagreed. Every width outside [0, 63] is
  // rejected, whichever operators the config selects.
  using Arith = approx::ApproxArithConfig;
  approx::ConvLayer conv;
  conv.weights = core::TensorF({1, 1, 3, 3}, 0.1F);
  conv.bias = {0.0F};
  const approx::FeatureMap input({1, 6, 6}, 0.5F);
  const approx::QuantConfig quant;
  struct BadArith {
    const char* field;
    int Arith::*member;
    int value;
  };
  const BadArith bad[] = {
      {"truncated_bits", &Arith::truncated_bits, 64},
      {"truncated_bits", &Arith::truncated_bits, -1},
      {"truncated_bits", &Arith::truncated_bits,
       std::numeric_limits<int>::max()},
      {"loa_bits", &Arith::loa_bits, 64},
      {"loa_bits", &Arith::loa_bits, -1},
      {"loa_bits", &Arith::loa_bits, std::numeric_limits<int>::min()},
  };
  for (const auto& b : bad) {
    for (const bool approximate : {true, false}) {
      SCOPED_TRACE(std::string(b.field) + " = " + std::to_string(b.value) +
                   (approximate ? " approximate" : " exact"));
      Arith arith;
      if (approximate) {
        arith.multiplier = Arith::Multiplier::kTruncated;
        arith.adder = Arith::Adder::kLoa;
      }
      arith.*b.member = b.value;
      try {
        arith.validate();
        ADD_FAILURE() << "validate() accepted it";
      } catch (const core::Error& e) {
        EXPECT_EQ(e.where(), "approx::ApproxArithConfig");
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << e.what();
      }
      EXPECT_THROW((void)approx::apply_approx(conv, input, quant, arith),
                   core::Error);
      EXPECT_THROW(
          (void)approx::apply_approx_reference(conv, input, quant, arith),
          core::Error);
      EXPECT_THROW((void)approx::evaluate_approx_conv(arith, 8, 1),
                   core::Error);
    }
  }

  // The range ends are accepted, and both datapaths agree on them.
  for (const int bits : {0, 63}) {
    SCOPED_TRACE(bits);
    Arith arith;
    arith.multiplier = Arith::Multiplier::kTruncated;
    arith.adder = Arith::Adder::kLoa;
    arith.truncated_bits = arith.loa_bits = bits;
    EXPECT_NO_THROW(arith.validate());
    EXPECT_TRUE(approx::apply_approx(conv, input, quant, arith) ==
                approx::apply_approx_reference(conv, input, quant, arith));
  }
}

TEST(Robustness, FovealRegionDegenerate) {
  approx::FovealRegion zero = approx::FovealRegion::centered(10, 10, 0.0);
  int inside = 0;
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 10; ++c) inside += zero.contains(r, c) ? 1 : 0;
  }
  EXPECT_LE(inside, 1);  // at most the exact centre pixel
}

// ---------------------------------------------------------------------------
// Fault-injection framework: determinism, monotone degradation, repair.

/// One campaign trial: crossbar MVM RMSE on a small weight matrix with the
/// given stuck-at rate (the per-trial seed varies the device population).
core::TrialResult crossbar_trial(std::uint64_t seed, double stuck_rate,
                                 std::size_t spares, int retries) {
  core::Rng rng(seed);
  core::TensorF w({12, 12});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::CrossbarConfig config;
  config.seed = seed;
  config.faults.seed = seed ^ 0xFA17;
  config.faults.stuck_at_rate = stuck_rate;
  config.spare_columns = spares;
  config.repair.max_retries = retries;
  core::TrialResult r;
  r.metric = imc::crossbar_mvm_rmse(w, config, 4, 1.0, seed ^ 0x5EED);
  const imc::Crossbar xbar(w, config);
  r.faults_injected = xbar.health().stuck_sites;
  r.repairs = xbar.health().repaired_cells + xbar.health().remapped_columns;
  return r;
}

TEST(Robustness, FaultCampaignSerialParallelBitIdentical) {
  // The acceptance gate of the whole framework: a campaign over faulty
  // crossbars must be bit-identical serially and on the shared pool.
  core::set_parallel_threads(4);
  const core::FaultCampaign campaign(0xCAFE, 12);
  const auto trial = [](std::uint64_t seed, std::size_t) {
    return crossbar_trial(seed, 0.03, 2, 1);
  };
  std::vector<core::TrialResult> serial;
  {
    core::ScopedSerial guard;
    serial = campaign.run(trial);
  }
  const auto parallel = campaign.run(trial);
  EXPECT_TRUE(core::campaign_results_identical(serial, parallel));
  core::set_parallel_threads(0);
}

TEST(Robustness, StuckAtDegradationIsMonotone) {
  // Campaign-mean MVM error must not decrease as the stuck-at rate grows:
  // the threshold-hash fault sets are nested across rates by construction.
  const core::FaultCampaign campaign(0xBEEF, 8);
  double previous = -1.0;
  for (const double rate : {0.0, 0.05, 0.2}) {
    const auto results = campaign.run([&](std::uint64_t seed, std::size_t) {
      return crossbar_trial(seed, rate, 0, 0);
    });
    const auto summary = core::FaultCampaign::summarize(results);
    EXPECT_GE(summary.mean_metric, previous)
        << "rate " << rate << " degraded less than a lower rate";
    previous = summary.mean_metric;
  }
  EXPECT_GT(previous, 0.0);
}

TEST(Robustness, RetryAndRemapImproveFaultyCrossbar) {
  // With stuck cells present, enabling bounded-retry programming plus
  // spare-column remapping must strictly reduce the campaign-mean error.
  const core::FaultCampaign campaign(0xD00D, 8);
  const auto bare = core::FaultCampaign::summarize(
      campaign.run([](std::uint64_t seed, std::size_t) {
        return crossbar_trial(seed, 0.08, 0, 0);
      }));
  const auto hardened = core::FaultCampaign::summarize(
      campaign.run([](std::uint64_t seed, std::size_t) {
        return crossbar_trial(seed, 0.08, 4, 2);
      }));
  EXPECT_LT(hardened.mean_metric, bare.mean_metric);
  EXPECT_GT(hardened.total_repairs, 0u);
}

TEST(Robustness, CrossbarHealthCensusMatchesConfig) {
  core::Rng rng(7);
  core::TensorF w({16, 16});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::CrossbarConfig clean;
  clean.seed = 7;
  const imc::Crossbar healthy(w, clean);
  EXPECT_EQ(healthy.health().stuck_sites, 0u);
  EXPECT_EQ(healthy.health().bad_columns, 0u);

  imc::CrossbarConfig faulty = clean;
  faulty.faults.stuck_at_rate = 0.05;
  const imc::Crossbar degraded(w, faulty);
  EXPECT_GT(degraded.health().stuck_sites, 0u);
  EXPECT_GT(degraded.health().total_sites, 0u);
}

TEST(Robustness, FabricRepartitionCompletesWithAnySurvivor) {
  // For every failed-CU count up to num_cus - 1, re-partitioning must
  // complete every kernel; with all CUs dead, the run must say so.
  const std::vector<scf::KernelCall> trace{
      {scf::KernelCall::Kind::kGemm, 64, 64, 64, "gemm"},
      {scf::KernelCall::Kind::kSoftmax, 4096, 0, 0, "softmax"},
  };
  scf::FabricConfig config;
  config.num_cus = 8;
  std::uint64_t previous_cycles = 0;
  for (int failed = 0; failed < config.num_cus; ++failed) {
    config.forced_failed_cus = failed;
    const scf::ScalableComputeFabric fabric(config);
    EXPECT_EQ(fabric.health().failed_cus, failed);
    EXPECT_EQ(fabric.health().active_cus, config.num_cus - failed);
    const auto stats = fabric.run_trace(trace);
    EXPECT_TRUE(stats.completed) << failed << " failed CUs";
    EXPECT_EQ(stats.lost_kernels, 0u);
    // Fewer survivors can never be faster.
    EXPECT_GE(stats.cycles, previous_cycles);
    previous_cycles = stats.cycles;
  }
  config.forced_failed_cus = config.num_cus;
  const scf::ScalableComputeFabric dead(config);
  EXPECT_FALSE(dead.operational());
  const auto stats = dead.run_trace(trace);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.lost_kernels, trace.size());
}

TEST(Robustness, FabricWithoutRepartitionLosesWork) {
  const std::vector<scf::KernelCall> trace{
      {scf::KernelCall::Kind::kGemm, 64, 64, 64, "gemm"},
  };
  scf::FabricConfig config;
  config.num_cus = 8;
  config.forced_failed_cus = 2;
  config.repartition_on_failure = false;
  const scf::ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(trace);
  EXPECT_FALSE(stats.completed);
  EXPECT_EQ(stats.lost_kernels, 1u);
  // The surviving fraction of the flops was performed, not all of it.
  scf::FabricConfig healthy = config;
  healthy.forced_failed_cus = 0;
  healthy.repartition_on_failure = true;
  const auto full = scf::ScalableComputeFabric(healthy).run_trace(trace);
  EXPECT_LT(stats.flops, full.flops);
}

TEST(Robustness, FabricDegradedKpiReportsSlowdown) {
  const std::vector<scf::KernelCall> trace{
      {scf::KernelCall::Kind::kGemm, 128, 64, 64, "gemm"},
      {scf::KernelCall::Kind::kGelu, 8192, 0, 0, "gelu"},
  };
  scf::FabricConfig config;
  config.num_cus = 8;
  config.forced_failed_cus = 4;
  const scf::ScalableComputeFabric fabric(config);
  const auto kpi = fabric.degraded_kpi(trace);
  EXPECT_TRUE(kpi.completed);
  EXPECT_EQ(kpi.health.failed_cus, 4);
  EXPECT_GE(kpi.slowdown, 1.0);
  EXPECT_GT(kpi.healthy_gflops, 0.0);
  EXPECT_GT(kpi.degraded_gflops, 0.0);
}

TEST(Robustness, HeteroFabricFallsBackAcrossPools) {
  const std::vector<scf::KernelCall> trace{
      {scf::KernelCall::Kind::kGemm, 64, 64, 64, "gemm"},
      {scf::KernelCall::Kind::kSoftmax, 4096, 0, 0, "softmax"},
  };
  // Kill the whole tensor pool: GEMMs must limp along on the vector CUs
  // instead of being lost.
  scf::FabricConfig config;
  config.num_cus = 12;
  config.vector_cus = 4;
  const scf::FabricConfig healthy_config = config;
  config.forced_failed_cus = config.num_cus;
  const scf::ScalableComputeFabric fabric(config);
  EXPECT_EQ(fabric.health().active_cus, 0);
  EXPECT_TRUE(fabric.operational());
  const auto stats = fabric.run_trace(trace);
  EXPECT_TRUE(stats.completed);
  // The fallback is slower than the healthy mixed fabric.
  const auto healthy =
      scf::ScalableComputeFabric(healthy_config).run_trace(trace);
  EXPECT_GT(stats.cycles, healthy.cycles);
  // Both pools dead: nothing completes.
  config.forced_failed_vector_cus = config.vector_cus;
  const scf::ScalableComputeFabric dead(config);
  EXPECT_FALSE(dead.operational());
  EXPECT_FALSE(dead.run_trace(trace).completed);
}

TEST(Robustness, DnaRereadSinglePassMatchesChannel) {
  core::Rng rng(11);
  std::vector<hetero::dna::Strand> strands(40);
  for (auto& s : strands) {
    s.resize(100);
    for (auto& b : s) b = static_cast<hetero::dna::Base>(rng.below(4));
  }
  hetero::dna::ChannelParams params;
  params.seed = 21;
  params.mean_coverage = 3.0;
  params.dropout_rate = 0.05;
  const auto single = hetero::dna::simulate_channel(strands, params);
  hetero::dna::RereadParams one_pass;
  one_pass.max_passes = 1;
  const auto reread =
      hetero::dna::simulate_channel_reread(strands, params, one_pass);
  EXPECT_EQ(reread.passes_used, 1);
  ASSERT_EQ(reread.set.reads.size(), single.reads.size());
  for (std::size_t i = 0; i < single.reads.size(); ++i) {
    EXPECT_EQ(reread.set.reads[i].origin, single.reads[i].origin);
    EXPECT_EQ(reread.set.reads[i].bases, single.reads[i].bases);
  }
  EXPECT_EQ(reread.set.substitutions, single.substitutions);
  EXPECT_EQ(reread.set.dropped_strands, single.dropped_strands);
}

TEST(Robustness, DnaRereadRescuesLowCoverageStrands) {
  core::Rng rng(13);
  std::vector<hetero::dna::Strand> strands(60);
  for (auto& s : strands) {
    s.resize(80);
    for (auto& b : s) b = static_cast<hetero::dna::Base>(rng.below(4));
  }
  hetero::dna::ChannelParams params;
  params.seed = 31;
  params.mean_coverage = 1.0;  // plenty of Poisson-zero strands
  hetero::dna::RereadParams retry;
  retry.max_passes = 4;
  retry.min_coverage = 2;
  const auto single = hetero::dna::simulate_channel(strands, params);
  const auto reread =
      hetero::dna::simulate_channel_reread(strands, params, retry);
  EXPECT_GT(reread.passes_used, 1);
  EXPECT_GT(reread.rescued_strands, 0u);
  // Strands without any read can only shrink relative to one pass.
  std::vector<char> covered(strands.size(), 0);
  for (const auto& read : single.reads) covered[read.origin] = 1;
  const auto uncovered_single = static_cast<std::size_t>(
      std::count(covered.begin(), covered.end(), 0));
  EXPECT_LT(reread.unrecovered_strands, uncovered_single);
}

/// Strand pool shared by the re-read channel tests.
std::vector<hetero::dna::Strand> make_strands(std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t length) {
  core::Rng rng(seed);
  std::vector<hetero::dna::Strand> strands(count);
  for (auto& s : strands) {
    s.resize(length);
    for (auto& b : s) b = static_cast<hetero::dna::Base>(rng.below(4));
  }
  return strands;
}

/// FNV-1a over a ReadSet: every read's origin, length and bases, then the
/// error and loss counters.
std::uint64_t read_set_hash(const hetero::dna::ReadSet& set) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  fold(set.source_strands);
  fold(set.reads.size());
  for (const auto& read : set.reads) {
    fold(read.origin);
    fold(read.bases.size());
    for (const auto base : read.bases) fold(static_cast<std::uint8_t>(base));
  }
  fold(set.substitutions);
  fold(set.insertions);
  fold(set.deletions);
  fold(set.dropped_strands);
  fold(set.burst_events);
  return h;
}

TEST(Robustness, DnaRereadGolden) {
  // Pins the re-read pass loop -- the ReadSet bytes and the re-read census
  // -- for one pass and for three, with dropout, with bursts, with an
  // empty strand pool and with a 200-strand pool.
  struct Golden {
    const char* name;
    std::size_t strands;
    int max_passes;
    double dropout_rate;
    double burst_rate;
    std::size_t reads;
    std::uint64_t hash;
    int passes_used;
    std::size_t rescued;
    std::size_t unrecovered;
  };
  const Golden goldens[] = {
      {"1 pass, dropout", 40, 1, 0.05, 0.0, 58, 0xc35e34d3f084ec23ULL, 1, 0, 11},
      {"3 passes, dropout", 40, 3, 0.05, 0.0, 120, 0x893dc7b84b3aa761ULL, 3, 10,
       1},
      {"3 passes, bursts", 40, 3, 0.0, 0.3, 115, 0x928261929567cbc0ULL, 3, 6, 0},
      {"3 passes, empty pool", 0, 3, 0.05, 0.3, 0, 0x8ac123d6f7dce585ULL, 1, 0,
       0},
      {"200 strands, 3 passes", 200, 3, 0.05, 0.3, 512, 0xfd343208ba57e3e4ULL,
       3, 43, 14},
  };
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.name);
    const auto strands = make_strands(29, golden.strands, 90);
    hetero::dna::ChannelParams params;
    params.seed = 53;
    params.mean_coverage = 1.5;  // Poisson-zero strands for the re-reads
    params.dropout_rate = golden.dropout_rate;
    params.burst_rate = golden.burst_rate;
    hetero::dna::RereadParams retry;
    retry.max_passes = golden.max_passes;
    retry.min_coverage = 2;
    const auto got =
        hetero::dna::simulate_channel_reread(strands, params, retry);
    EXPECT_EQ(got.set.reads.size(), golden.reads);
    EXPECT_EQ(read_set_hash(got.set), golden.hash);
    EXPECT_EQ(got.passes_used, golden.passes_used);
    EXPECT_EQ(got.rescued_strands, golden.rescued);
    EXPECT_EQ(got.unrecovered_strands, golden.unrecovered);
  }
}

TEST(Robustness, DnaChannelParamsValidated) {
  // Every entry point that takes ChannelParams throws before it draws: a
  // rate outside [0, 1], an insertion rate of 1 (the per-base insertion
  // loop never ended), and a NaN, infinite, negative or huge coverage or
  // burst length (the Poisson draw's int cast was undefined behaviour).
  using hetero::dna::ChannelParams;
  const auto strands = make_strands(37, 8, 40);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    double ChannelParams::*member;
    double value;
  };
  const Bad bad[] = {
      {"substitution_rate", &ChannelParams::substitution_rate, -0.1},
      {"substitution_rate", &ChannelParams::substitution_rate, 1.5},
      {"insertion_rate", &ChannelParams::insertion_rate, 1.0},
      {"insertion_rate", &ChannelParams::insertion_rate, 2.0},
      {"insertion_rate", &ChannelParams::insertion_rate, inf},
      {"deletion_rate", &ChannelParams::deletion_rate, nan},
      {"dropout_rate", &ChannelParams::dropout_rate, 1.01},
      {"burst_rate", &ChannelParams::burst_rate, -1e-9},
      {"mean_coverage", &ChannelParams::mean_coverage, nan},
      {"mean_coverage", &ChannelParams::mean_coverage, inf},
      {"mean_coverage", &ChannelParams::mean_coverage, -1.0},
      {"mean_coverage", &ChannelParams::mean_coverage, 1e12},
      {"burst_length_mean", &ChannelParams::burst_length_mean, -inf},
      {"burst_length_mean", &ChannelParams::burst_length_mean, 1e7},
  };
  for (const auto& b : bad) {
    SCOPED_TRACE(std::string(b.field) + " = " + std::to_string(b.value));
    ChannelParams params;
    params.*b.member = b.value;
    try {
      params.validate();
      ADD_FAILURE() << "validate() accepted it";
    } catch (const core::Error& e) {
      EXPECT_EQ(e.where(), "dna::ChannelParams");
      EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)hetero::dna::simulate_channel(strands, params),
                 core::Error);
    EXPECT_THROW((void)hetero::dna::simulate_channel_reread(
                     strands, params, hetero::dna::RereadParams{}),
                 core::Error);
    core::Rng rng(1);
    EXPECT_THROW((void)hetero::dna::corrupt_strand(strands[0], params, rng),
                 core::Error);
    hetero::dna::ArchivalSimParams archival;
    archival.payload_bytes = 64;
    archival.channel = params;
    EXPECT_THROW((void)hetero::dna::run_archival_sim(archival), core::Error);
    hetero::dna::StorageSimParams storage;
    storage.payload_bytes = 64;
    storage.channel = params;
    EXPECT_THROW((void)hetero::dna::run_storage_sim(storage), core::Error);
  }
  // The ends of every range pass, and the channel runs at them.
  ChannelParams edge;
  edge.substitution_rate = 1.0;
  edge.insertion_rate = 0.5;
  edge.deletion_rate = 1.0;
  edge.dropout_rate = 1.0;
  edge.burst_rate = 1.0;
  edge.mean_coverage = 0.0;
  edge.burst_length_mean = 0.0;
  EXPECT_TRUE(hetero::dna::simulate_channel(strands, edge).reads.empty());
  edge.mean_coverage = ChannelParams::kMaxPoissonMean;
  edge.burst_length_mean = ChannelParams::kMaxPoissonMean;
  EXPECT_NO_THROW(edge.validate());
  edge.dropout_rate = 0.0;
  edge.mean_coverage = 2.0;
  EXPECT_FALSE(hetero::dna::simulate_channel(strands, edge).reads.empty());
}

TEST(Robustness, DnaBurstErrorsAreCountedAndOffByDefault) {
  core::Rng rng(17);
  std::vector<hetero::dna::Strand> strands(20);
  for (auto& s : strands) {
    s.resize(100);
    for (auto& b : s) b = static_cast<hetero::dna::Base>(rng.below(4));
  }
  hetero::dna::ChannelParams params;
  params.seed = 41;
  const auto clean = hetero::dna::simulate_channel(strands, params);
  EXPECT_EQ(clean.burst_events, 0u);
  hetero::dna::ChannelParams bursty = params;
  bursty.burst_rate = 0.5;
  const auto hit = hetero::dna::simulate_channel(strands, bursty);
  EXPECT_GT(hit.burst_events, 0u);
  EXPECT_GT(hit.substitutions, clean.substitutions);
}

// ---------------------------------------------------------------------------
// NaN/Inf propagation and input validation.

TEST(Robustness, SoftmaxInfinityLogitsStayFinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> one_hot{0.0F, inf, -1.0F};
  for (const auto& probs : {approx::softmax_exact(one_hot),
                            approx::softmax_approx(one_hot),
                            approx::softmax_approx_exact_norm(one_hot)}) {
    for (const float p : probs) EXPECT_TRUE(std::isfinite(p));
    EXPECT_GT(probs[1], probs[0]);
    EXPECT_GT(probs[1], probs[2]);
  }
  // All -inf collapses to uniform, not NaN.
  const std::vector<float> floor{-inf, -inf};
  for (const float p : approx::softmax_exact(floor)) {
    EXPECT_TRUE(std::isfinite(p));
  }
}

TEST(Robustness, SoftmaxNanPropagatesWithoutTrapping) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> logits{0.0F, nan, 1.0F};
  const auto exact = approx::softmax_exact(logits);
  EXPECT_EQ(exact.size(), logits.size());  // no crash, NaN flows through
  bool any_nan = false;
  for (const float p : exact) any_nan = any_nan || std::isnan(p);
  EXPECT_TRUE(any_nan);
}

TEST(Robustness, ConvNanStaysLocalToReceptiveField) {
  approx::ConvLayer layer;
  layer.weights = core::TensorF({1, 1, 3, 3}, 0.1F);
  layer.bias = {0.0F};
  layer.relu = false;  // linear conv: NaN must propagate, not trap
  approx::FeatureMap input({1, 8, 8}, 1.0F);
  input(0, 0, 0) = std::numeric_limits<float>::quiet_NaN();
  const auto out = layer.apply(input, approx::QuantConfig{});
  // The NaN poisons its own receptive field but nothing beyond it.
  EXPECT_TRUE(std::isnan(out(0, 0, 0)));
  EXPECT_TRUE(std::isnan(out(0, 1, 1)));
  EXPECT_FALSE(std::isnan(out(0, 0, 2)));
  EXPECT_FALSE(std::isnan(out(0, 4, 4)));
  EXPECT_FALSE(std::isnan(out(0, 7, 7)));

  // With ReLU the NaN is squashed to zero (std::max(0.0, NaN) == 0.0): the
  // corrupted pixel degrades locally instead of poisoning downstream layers.
  layer.relu = true;
  const auto clamped = layer.apply(input, approx::QuantConfig{});
  EXPECT_EQ(clamped(0, 0, 0), 0.0F);
  EXPECT_FALSE(std::isnan(clamped(0, 4, 4)));
}

TEST(Robustness, DseNonFiniteEstimatesAreInfeasible) {
  // A zero-fmax device makes every latency estimate infinite; such points
  // must be counted as evaluated but excluded from the feasible set and
  // the Pareto front instead of poisoning them.
  const hls::Kernel body = hls::make_fir_kernel(8);
  hls::DseConfig config;
  config.device.base_fmax_mhz = 0.0;
  const auto random = hls::dse_random(body, config, 16, 5);
  EXPECT_EQ(random.evaluations, 16u);
  EXPECT_EQ(random.feasible, 0u);
  EXPECT_TRUE(random.evaluated.empty());
  EXPECT_TRUE(random.front.empty());
  const auto climbed = hls::dse_hill_climb(body, config, 2, 5);
  EXPECT_GT(climbed.evaluations, 0u);
  EXPECT_EQ(climbed.feasible, 0u);
}

TEST(Robustness, DseConfigValidationThrows) {
  // An unroll factor of 0 divides by zero in the latency roll-up (SIGFPE),
  // a negative unroll or trip count yields negative latencies that reach
  // the Pareto front, and an empty axis makes the random and hill-climb
  // draws index an empty vector. Every strategy rejects the config before
  // any evaluation; evaluate_design, which takes its unroll as an argument
  // and reads no space axis, rejects a bad unroll or trip count.
  const hls::Kernel body = hls::make_fir_kernel(8);
  const auto rejects = [&body](auto edit) {
    hls::DseConfig config;
    edit(config);
    EXPECT_THROW(hls::dse_exhaustive(body, config), core::Error);
    EXPECT_THROW(hls::dse_random(body, config, 8, 1), core::Error);
    EXPECT_THROW(hls::dse_hill_climb(body, config, 2, 1), core::Error);
  };
  for (const int bad : {0, -2}) {
    rejects([bad](hls::DseConfig& c) { c.space.unroll_factors = {bad}; });
    rejects([bad](hls::DseConfig& c) { c.space.unroll_factors = {1, 4, bad}; });
    EXPECT_THROW(hls::evaluate_design(body, bad, {}, hls::DseConfig{}),
                 core::Error);
  }
  for (const int bad : {0, -100}) {
    rejects([bad](hls::DseConfig& c) { c.iterations = bad; });
    hls::DseConfig config;
    config.iterations = bad;
    EXPECT_THROW(hls::evaluate_design(body, 1, {}, config), core::Error);
  }
  // A zero resource count divided by zero in the modulo scheduler's
  // initiation-interval bound (SIGFPE) on the uncached path, and the
  // memoized path clamped it up to one unit and reported the point as
  // feasible with a zero budget. Negative counts fared no better.
  for (const bool pipelined : {false, true}) {
    for (const bool memoize : {false, true}) {
      for (const int bad : {0, -1}) {
        const auto with = [&](auto axis) {
          return [=](hls::DseConfig& c) {
            c.pipelined = pipelined;
            c.memoize = memoize;
            c.space.*axis = {1, bad};
          };
        };
        rejects(with(&hls::DseSpace::alu_counts));
        rejects(with(&hls::DseSpace::mul_counts));
        rejects(with(&hls::DseSpace::mem_port_counts));
      }
    }
  }
  for (const bool pipelined : {false, true}) {
    hls::DseConfig config;
    config.pipelined = pipelined;
    for (const int bad : {0, -1}) {
      for (int hls::ResourceBudget::*cls :
           {&hls::ResourceBudget::alus, &hls::ResourceBudget::muls,
            &hls::ResourceBudget::divs, &hls::ResourceBudget::mem_ports}) {
        hls::ResourceBudget budget;
        budget.*cls = bad;
        EXPECT_THROW(hls::evaluate_design(body, 1, budget, config),
                     core::Error);
      }
    }
  }
  rejects([](hls::DseConfig& c) { c.space.unroll_factors.clear(); });
  rejects([](hls::DseConfig& c) { c.space.alu_counts.clear(); });
  rejects([](hls::DseConfig& c) { c.space.mul_counts.clear(); });
  rejects([](hls::DseConfig& c) { c.space.mem_port_counts.clear(); });

  // The smallest legal config: one trip over a one-point space.
  hls::DseConfig tiny;
  tiny.iterations = 1;
  tiny.space = {{1}, {1}, {1}, {1}};
  EXPECT_EQ(hls::dse_exhaustive(body, tiny).evaluations, 1u);
  EXPECT_EQ(hls::dse_random(body, tiny, 3, 1).evaluations, 3u);
  EXPECT_GT(hls::dse_hill_climb(body, tiny, 1, 1).evaluations, 0u);
  EXPECT_GT(hls::evaluate_design(body, 1, {}, tiny).total_latency_us, 0.0);
}

TEST(Robustness, FaultConfigValidated) {
  // FaultInjector::at classifies a site with one uniform against the
  // cumulative stuck/drift/dropout/delay thresholds, so a bad rate silently
  // changed the other kinds' rates: stuck 0.6 with drift 0.6 gave a drift
  // rate near 0.4, and a NaN or negative stuck rate hid all drift. Every
  // entry point that takes a FaultConfig rejects it before it injects.
  using core::FaultConfig;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    double FaultConfig::*member;
    double value;
  };
  const Bad bad[] = {
      {"stuck_at_rate", &FaultConfig::stuck_at_rate, nan},
      {"stuck_at_rate", &FaultConfig::stuck_at_rate, -0.5},
      {"stuck_at_rate", &FaultConfig::stuck_at_rate, 2.0},
      {"transient_rate", &FaultConfig::transient_rate, -1e-9},
      {"transient_rate", &FaultConfig::transient_rate, 1.5},
      {"drift_rate", &FaultConfig::drift_rate, inf},
      {"dropout_rate", &FaultConfig::dropout_rate, 1.01},
      {"delay_rate", &FaultConfig::delay_rate, -inf},
  };
  const core::TensorF w({4, 4}, 0.25F);
  const auto rejected_everywhere = [&w](const FaultConfig& faults) {
    EXPECT_THROW((void)core::FaultInjector{faults}, core::Error);
    imc::CrossbarConfig xbar;
    xbar.faults = faults;
    EXPECT_THROW(xbar.validate(), core::Error);
    EXPECT_THROW((void)imc::Crossbar(w, xbar), core::Error);
    imc::TileConfig tile;
    tile.crossbar.faults = faults;
    EXPECT_THROW((void)imc::TiledMatvec(w, tile), core::Error);
    scf::FabricConfig fabric;
    fabric.faults = faults;
    EXPECT_THROW(fabric.validate(), core::Error);
    EXPECT_THROW((void)scf::ScalableComputeFabric{fabric}, core::Error);
  };
  for (const auto& b : bad) {
    SCOPED_TRACE(std::string(b.field) + " = " + std::to_string(b.value));
    FaultConfig faults;
    faults.*b.member = b.value;
    rejected_everywhere(faults);
  }
  {
    SCOPED_TRACE("stuck 0.6 + drift 0.6");
    FaultConfig faults;
    faults.stuck_at_rate = 0.6;
    faults.drift_rate = 0.6;
    rejected_everywhere(faults);
  }
  {
    SCOPED_TRACE("site kinds summing to 1.2");
    FaultConfig faults;
    faults.drift_rate = 0.3;
    faults.dropout_rate = 0.5;
    faults.delay_rate = 0.4;
    rejected_everywhere(faults);
  }

  // The ends of the range pass: every rate 0, any one rate 1 (transient
  // included, since it is a separate per-operation draw), and site kinds
  // that sum to exactly 1.
  std::vector<FaultConfig> good(1);
  for (double FaultConfig::*member :
       {&FaultConfig::stuck_at_rate, &FaultConfig::transient_rate,
        &FaultConfig::drift_rate, &FaultConfig::dropout_rate,
        &FaultConfig::delay_rate}) {
    FaultConfig one;
    one.*member = 1.0;
    good.push_back(one);
  }
  FaultConfig sum_one;
  sum_one.stuck_at_rate = 0.25;
  sum_one.drift_rate = 0.25;
  sum_one.dropout_rate = 0.25;
  sum_one.delay_rate = 0.25;
  sum_one.transient_rate = 1.0;
  good.push_back(sum_one);
  FaultConfig tenths;  // 0.1 + 0.2 + 0.3 + 0.4 rounds a hair above 1
  tenths.stuck_at_rate = 0.1;
  tenths.drift_rate = 0.2;
  tenths.dropout_rate = 0.3;
  tenths.delay_rate = 0.4;
  good.push_back(tenths);
  for (const auto& faults : good) {
    EXPECT_NO_THROW((void)core::FaultInjector{faults});
    imc::CrossbarConfig xbar;
    xbar.faults = faults;
    EXPECT_NO_THROW(xbar.validate());
    scf::FabricConfig fabric;
    fabric.faults = faults;
    EXPECT_NO_THROW(fabric.validate());
  }
}

TEST(Robustness, SpartaConfigValidationThrows) {
  // A zero line size divides by zero in the channel index (SIGFPE), a
  // negative latency wraps SpartaStats::cycles to about 1.8e19, and a
  // negative channel gap silently shortens the run. All three entry points
  // reject them on entry.
  const auto tasks = hls::make_spmv_tasks(core::make_rmat_graph(6, 4.0, 5));
  const auto rejects = [&tasks](auto edit) {
    hls::SpartaConfig config;
    edit(config);
    EXPECT_THROW(hls::simulate_sparta(tasks, config), core::Error);
    EXPECT_THROW(hls::simulate_sparta_sampled(tasks, config, {}), core::Error);
    EXPECT_THROW(hls::sparta_isolated_reference(tasks, config, 16),
                 core::Error);
  };
  for (const int bad : {0, -64}) {
    rejects([bad](hls::SpartaConfig& c) { c.cache_line_bytes = bad; });
  }
  for (const int bad : {-1, -500}) {
    rejects([bad](hls::SpartaConfig& c) { c.mem_latency_cycles = bad; });
    rejects([bad](hls::SpartaConfig& c) { c.channel_gap_cycles = bad; });
    rejects([bad](hls::SpartaConfig& c) { c.cache_hit_latency = bad; });
    rejects([bad](hls::SpartaConfig& c) { c.context_switch_cycles = bad; });
    rejects([bad](hls::SpartaConfig& c) { c.scratchpad_latency = bad; });
  }

  // Zero latencies and gaps stay legal, and counts below 1 are clamped.
  hls::SpartaConfig edge;
  edge.lanes = 0;
  edge.contexts_per_lane = 0;
  edge.mem_channels = 0;
  edge.cache_lines = 0;
  edge.cache_ways = 0;
  edge.cache_line_bytes = 1;
  edge.mem_latency_cycles = 0;
  edge.channel_gap_cycles = 0;
  edge.cache_hit_latency = 0;
  edge.context_switch_cycles = 0;
  edge.scratchpad_latency = 0;
  const auto stats = hls::simulate_sparta(tasks, edge);
  EXPECT_EQ(stats.tasks_executed, tasks.size());
  EXPECT_LT(stats.cycles, std::uint64_t{1} << 32);
}

TEST(Robustness, TensorShapeMismatchesThrowStructuredErrors) {
  core::TensorF a({2, 3}, 1.0F);
  core::TensorF b({3, 2}, 1.0F);
  EXPECT_THROW(a += b, core::Error);
  EXPECT_THROW(a -= b, core::Error);
  const std::vector<float> x(5, 1.0F);
  try {
    core::matvec(a, std::span<const float>(x));
    FAIL() << "matvec must throw on a vector length mismatch";
  } catch (const core::Error& e) {
    EXPECT_EQ(e.where(), "core::matvec");
    EXPECT_NE(std::string(e.what()).find("[2, 3]"), std::string::npos);
  }
}

TEST(Robustness, GraphValidationThrows) {
  // Out-of-range edge endpoints corrupt CSR offsets; must throw instead.
  EXPECT_THROW(core::csr_from_edges(4, {{0, 9}}), core::Error);
  EXPECT_THROW(core::csr_from_edges(4, {{9, 0}}), core::Error);
  const auto g = core::csr_from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_THROW(core::spmv(g, std::vector<float>(3, 1.0F)), core::Error);
  EXPECT_EQ(core::spmv(g, std::vector<float>(4, 1.0F)).size(), 4u);
}

TEST(Robustness, ImcValidationThrows) {
  EXPECT_THROW(imc::Crossbar(core::TensorF({3}), imc::CrossbarConfig{}),
               core::Error);
  core::TensorF w({4, 4}, 0.5F);
  imc::Crossbar xbar(w, imc::CrossbarConfig{});
  const std::vector<float> wrong(3, 1.0F);
  EXPECT_THROW(xbar.matvec(std::span<const float>(wrong)), core::Error);

  // A 1-bit converter leaves the signed quantiser no level (0/0 would make
  // every output NaN) and 32 bits overflow its level count; crossbars
  // reject them, also as the crossbar nested in a tile config.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects_crossbar = [&w](auto edit) {
    imc::CrossbarConfig config;
    edit(config);
    EXPECT_THROW(imc::Crossbar(w, config), core::Error);
    imc::TileConfig tiles;
    tiles.crossbar = config;
    EXPECT_THROW(imc::TiledMatvec(w, tiles), core::Error);
  };
  for (const int bad : {1, 32, 40}) {
    rejects_crossbar([bad](imc::CrossbarConfig& c) { c.dac_bits = bad; });
    rejects_crossbar([bad](imc::CrossbarConfig& c) { c.adc_bits = bad; });
  }
  for (const double bad : {-1e-4, kNan, kInf}) {
    rejects_crossbar([bad](imc::CrossbarConfig& c) { c.ir_drop_per_row = bad; });
    rejects_crossbar([bad](imc::CrossbarConfig& c) { c.adc_energy_pj = bad; });
  }
  for (const int ok : {-1, 0, 2, 31}) {  // <= 0 is an ideal converter
    imc::CrossbarConfig config;
    config.dac_bits = ok;
    config.adc_bits = ok;
    imc::Crossbar ideal_or_wide(w, config);
    for (const float y : ideal_or_wide.matvec(std::vector<float>(4, 0.5F))) {
      EXPECT_TRUE(std::isfinite(y)) << "bits " << ok;
    }
  }

  const auto rejects_tiles = [&w](auto edit) {
    imc::TileConfig config;
    edit(config);
    EXPECT_THROW(imc::TiledMatvec(w, config), core::Error);
  };
  rejects_tiles([](imc::TileConfig& c) { c.tile_rows = 0; });
  rejects_tiles([](imc::TileConfig& c) { c.tile_cols = 0; });
  for (const double bad : {-0.5, kNan, kInf}) {
    rejects_tiles([bad](imc::TileConfig& c) { c.analog_hop_noise_rel = bad; });
    rejects_tiles([bad](imc::TileConfig& c) { c.accumulate_energy_pj = bad; });
    rejects_tiles([bad](imc::TileConfig& c) { c.noc_energy_pj = bad; });
    rejects_tiles([bad](imc::TileConfig& c) { c.tile_mvm_ns = bad; });
    rejects_tiles([bad](imc::TileConfig& c) { c.noc_hop_ns = bad; });
  }
}

TEST(Robustness, ImcNestedConfigsAndReadTimeValidated) {
  // CrossbarConfig::validate() checks the device, programming and repair
  // configs it nests, so a tile config rejects them too; the entry points
  // that take a DeviceSpec or ProgramVerifyConfig directly check them, and
  // every read checks its time.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const core::TensorF w({4, 4}, 0.5F);
  const auto rejects = [&w](auto edit) {
    imc::CrossbarConfig config;
    edit(config);
    EXPECT_THROW(imc::Crossbar(w, config), core::Error);
    imc::TileConfig tiles;
    tiles.crossbar = config;
    EXPECT_THROW(imc::TiledMatvec(w, tiles), core::Error);
  };
  using Config = imc::CrossbarConfig;
  for (const double bad : {-0.01, kNan, kInf}) {
    rejects([bad](Config& c) { c.device.g_min_us = bad; });
    rejects([bad](Config& c) { c.device.program_sigma_rel = bad; });
    rejects([bad](Config& c) { c.device.program_gain = bad; });
    rejects([bad](Config& c) { c.device.read_noise_rel = bad; });
    rejects([bad](Config& c) { c.device.drift_nu_sigma = bad; });
    rejects([bad](Config& c) { c.device.program_energy_pj = bad; });
    rejects([bad](Config& c) { c.device.read_energy_pj = bad; });
    rejects([bad](Config& c) { c.programming.tolerance_rel = bad; });
  }
  for (const double bad : {kNan, kInf, -kInf}) {
    rejects([bad](Config& c) { c.device.drift_nu = bad; });
    rejects([bad](Config& c) { c.device.g_max_us = bad; });
  }
  // g_max <= g_min would hand std::clamp an inverted range.
  rejects([](Config& c) {
    c.device.g_min_us = 10.0;
    c.device.g_max_us = 1.0;
  });
  rejects([](Config& c) { c.device.g_max_us = c.device.g_min_us; });
  for (const int bad : {0, -3}) {
    rejects([bad](Config& c) { c.programming.max_pulses = bad; });
    rejects([bad](Config& c) { c.programming.fixed_pulses = bad; });
  }
  for (const int bad : {-1, imc::kMaxRepairRetries + 1, 2000}) {
    rejects([bad](Config& c) { c.repair.max_retries = bad; });
  }
  for (const double bad : {0.0, -2.0, kNan, kInf}) {
    rejects([bad](Config& c) { c.repair.backoff = bad; });
  }
  // 10^9 pulses escalated by 4 once no longer fits an int.
  rejects([](Config& c) {
    c.programming.max_pulses = 1'000'000'000;
    c.repair.max_retries = 1;
    c.repair.backoff = 4.0;
  });

  // The edges stay legal: a noiseless device, a negative drift mean and
  // the longest repair policy with a flat budget.
  {
    Config edge;
    edge.device.read_noise_rel = 0.0;
    edge.device.drift_nu = -0.01;
    edge.repair.max_retries = imc::kMaxRepairRetries;
    edge.repair.backoff = 1.0;
    imc::Crossbar xbar(w, edge);
    for (const float y : xbar.matvec(std::vector<float>(4, 0.5F), 0.0)) {
      EXPECT_TRUE(std::isfinite(y));
    }
  }

  imc::DeviceSpec bad_spec = imc::rram_spec();
  bad_spec.g_min_us = kNan;
  imc::ProgramVerifyConfig bad_pv;
  bad_pv.max_pulses = 0;
  const imc::DeviceSpec spec = imc::rram_spec();
  const imc::ProgramVerifyConfig pv;
  const core::sampling::EarlyStopConfig stop;
  EXPECT_THROW(imc::measure_programming(bad_spec, pv, 4, 1), core::Error);
  EXPECT_THROW(imc::measure_programming(spec, bad_pv, 4, 1), core::Error);
  EXPECT_THROW(imc::characterize_drift(bad_spec, 4, 3, 1), core::Error);
  EXPECT_THROW(imc::characterize_programming_error(bad_spec, pv, 50.0, 4, 1),
               core::Error);
  EXPECT_THROW(imc::characterize_programming_error(spec, bad_pv, 50.0, 4, 1),
               core::Error);
  EXPECT_THROW(imc::characterize_read_noise(bad_spec, 4, 1), core::Error);
  EXPECT_THROW(imc::characterize_programming_error_sequential(
                   bad_spec, pv, 50.0, 10, 1, stop),
               core::Error);
  EXPECT_THROW(imc::characterize_programming_error_sequential(
                   spec, bad_pv, 50.0, 10, 1, stop),
               core::Error);
  EXPECT_THROW(imc::characterize_read_noise_sequential(bad_spec, 10, 1, stop),
               core::Error);

  // A read time outside [0, inf) would poison every drifting cell through
  // pow(t, -nu).
  imc::Crossbar xbar(w, imc::CrossbarConfig{});
  imc::TiledMatvec tiled(w, imc::TileConfig{});
  const core::Mlp mlp({4, 4}, 3);
  imc::AnalogMlpBackend backend(mlp, imc::TileConfig{});
  const std::vector<float> x(4, 0.5F);
  for (const double bad : {kNan, -1.0, kInf, -kInf}) {
    EXPECT_THROW(xbar.matvec(x, bad), core::Error) << bad;
    EXPECT_THROW(xbar.matvec_raw(x, bad), core::Error) << bad;
    EXPECT_THROW(tiled.matvec(x, bad), core::Error) << bad;
    EXPECT_THROW(backend.set_read_time(bad), core::Error) << bad;
  }
  for (const double t : {0.0, 1.0, 1e6}) {
    for (const float y : xbar.matvec(x, t)) EXPECT_TRUE(std::isfinite(y));
    for (const float y : tiled.matvec(x, t)) EXPECT_TRUE(std::isfinite(y));
    backend.set_read_time(t);
  }
}

TEST(Robustness, DimcMacroShapeThrows) {
  // Checked in every build, NDEBUG included: a rank-1 tensor must not
  // reach dim(1) in the member initializer, and a short input must not be
  // read past its end.
  EXPECT_THROW(imc::DimcMacro(core::TensorF({3}), imc::DimcConfig{}),
               core::Error);
  EXPECT_THROW(imc::DimcMacro(core::TensorF({2, 2, 2}), imc::DimcConfig{}),
               core::Error);
  imc::DimcMacro dimc(core::TensorF({2, 4}, 0.5F), imc::DimcConfig{});
  EXPECT_THROW(dimc.matvec(std::vector<float>(3, 1.0F)), core::Error);
  EXPECT_THROW(dimc.matvec(std::vector<float>(5, 1.0F)), core::Error);
  EXPECT_EQ(dimc.matvec(std::vector<float>(4, 1.0F)).size(), 2u);
}

TEST(Robustness, TransformerConfigValidationThrows) {
  const auto rejects = [](auto edit) {
    scf::TransformerConfig config;
    edit(config);
    EXPECT_THROW(scf::TransformerBlock{config}, core::Error);
    EXPECT_THROW(scf::kernel_trace(config), core::Error);
  };
  rejects([](scf::TransformerConfig& c) { c.heads = 0; });  // d_head() / 0
  rejects([](scf::TransformerConfig& c) { c.heads = 3; });  // 256 % 3 != 0
  rejects([](scf::TransformerConfig& c) { c.seq_len = 0; });
  rejects([](scf::TransformerConfig& c) { c.d_model = 0; });
  rejects([](scf::TransformerConfig& c) { c.d_ff = 0; });
}

TEST(Robustness, ScfHardwareConfigValidationThrows) {
  // Inside the models a bad value divides by zero (tensor_rows = 0),
  // overflows the uint64 cycle cast (interconnect_bytes_per_cycle = 0,
  // negative dispatch) or makes energy infinite (fclk_mhz = 0), so every
  // SCF model constructor rejects it, also as either pool's CU in a fabric.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects_cu = [](auto edit) {
    scf::CuConfig cu;
    edit(cu);
    EXPECT_THROW(scf::ComputeUnit{cu}, core::Error);
    scf::FabricConfig tensor_pool;
    edit(tensor_pool.cu);
    EXPECT_THROW(scf::ScalableComputeFabric{tensor_pool}, core::Error);
    scf::FabricConfig vector_pool;
    vector_pool.vector_cus = 4;
    edit(vector_pool.vector_cu);
    EXPECT_THROW(scf::ScalableComputeFabric{vector_pool}, core::Error);
  };
  rejects_cu([](scf::CuConfig& c) { c.cores = 0; });
  rejects_cu([](scf::CuConfig& c) { c.cores = -4; });
  rejects_cu([](scf::CuConfig& c) { c.tensor_rows = 0; });
  rejects_cu([](scf::CuConfig& c) { c.tensor_cols = 0; });
  rejects_cu([](scf::CuConfig& c) { c.tensor_cols = -1; });
  for (const double bad : {0.0, -460.0, kNan, kInf}) {
    rejects_cu([bad](scf::CuConfig& c) { c.fclk_mhz = bad; });
    rejects_cu([bad](scf::CuConfig& c) { c.vdd = bad; });
    rejects_cu([bad](scf::CuConfig& c) { c.dma_bytes_per_cycle = bad; });
  }
  for (const double bad : {-1.0, kNan, kInf, -kInf}) {
    rejects_cu([bad](scf::CuConfig& c) { c.fma_energy_pj = bad; });
    rejects_cu([bad](scf::CuConfig& c) { c.core_op_energy_pj = bad; });
    rejects_cu([bad](scf::CuConfig& c) { c.dma_byte_energy_pj = bad; });
    rejects_cu([bad](scf::CuConfig& c) { c.static_power_mw = bad; });
  }

  // The fabric-level fields, with and without a vector pool.
  const auto rejects_fabric = [](auto edit) {
    scf::FabricConfig fabric;
    edit(fabric);
    EXPECT_THROW((void)scf::ScalableComputeFabric{fabric}, core::Error);
    scf::FabricConfig mixed;
    mixed.vector_cus = 4;
    edit(mixed);
    EXPECT_THROW(scf::ScalableComputeFabric{mixed}, core::Error);
  };
  // A fabric needs a tensor CU; a negative pool size has no meaning.
  for (const int bad : {0, -1}) {
    rejects_fabric([bad](scf::FabricConfig& c) { c.num_cus = bad; });
  }
  rejects_fabric([](scf::FabricConfig& c) { c.vector_cus = -1; });
  for (const double bad : {0.0, -128.0, kNan, kInf}) {
    rejects_fabric(
        [bad](auto& c) { c.interconnect_bytes_per_cycle = bad; });
  }
  for (const double bad : {-1.0, -1e30, kNan, kInf}) {
    rejects_fabric([bad](auto& c) { c.dispatch_cycles = bad; });
    rejects_fabric([bad](auto& c) { c.uncore_power_mw = bad; });
  }
  for (const double bad : {0.999, 0.0, -2.0, kNan, kInf}) {
    rejects_fabric([bad](auto& c) { c.slow_cu_penalty = bad; });
  }

  // Boundary values stay legal: zero dispatch (the integration test's
  // compute-only fabric), a penalty of exactly 1, and zero energies and
  // powers. The run then reports finite, positive cycles.
  scf::FabricConfig edge;
  edge.dispatch_cycles = 0.0;
  edge.slow_cu_penalty = 1.0;
  edge.uncore_power_mw = 0.0;
  edge.cu.fma_energy_pj = 0.0;
  edge.cu.static_power_mw = 0.0;
  const scf::ScalableComputeFabric fabric(edge);
  const auto stats = fabric.run_trace(scf::kernel_trace({}));
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_TRUE(std::isfinite(stats.energy_pj));
  scf::FabricConfig mixed_edge = edge;
  mixed_edge.vector_cus = 4;
  mixed_edge.vector_cu.static_power_mw = 0.0;
  EXPECT_NO_THROW(scf::ScalableComputeFabric{mixed_edge});
}

TEST(Robustness, ScfCycleCountOverflowThrows) {
  // Finite but extreme values pass validate() and push a kernel's cycle
  // count past 2^64, where the double -> uint64 cast is undefined; a
  // 1e19-cycle dispatch fits one kernel but overflows the trace sum. Both
  // one-pool and mixed fabrics throw instead of reporting a small, wrong
  // count.
  const auto trace = scf::kernel_trace({});
  const auto overflows = [&trace](auto edit) {
    scf::FabricConfig fabric;
    edit(fabric);
    EXPECT_THROW(scf::ScalableComputeFabric{fabric}.run_trace(trace),
                 core::Error);
    scf::FabricConfig mixed;
    mixed.vector_cus = 4;
    edit(mixed);
    EXPECT_THROW(scf::ScalableComputeFabric{mixed}.run_trace(trace),
                 core::Error);
  };
  overflows([](auto& c) { c.dispatch_cycles = 1e30; });
  overflows([](auto& c) { c.interconnect_bytes_per_cycle = 1e-300; });
  overflows([](auto& c) { c.dispatch_cycles = 1e19; });
}

TEST(Robustness, TransformerShapeMismatchesThrow) {
  scf::TransformerConfig config;
  config.seq_len = 8;
  config.d_model = 16;
  config.heads = 2;
  config.d_ff = 32;
  const scf::TransformerBlock block(config);
  const auto x = scf::make_activations(config, 1);
  EXPECT_THROW(block.forward(core::TensorF({8, 17})), core::Error);
  EXPECT_THROW(block.forward(core::TensorF({9, 16})), core::Error);
  EXPECT_THROW(block.forward(core::TensorF({8 * 16})), core::Error);
  const auto y = block.forward(x);
  EXPECT_EQ(scf::max_abs_diff(y, y), 0.0F);
  EXPECT_THROW(scf::max_abs_diff(y, core::TensorF({8, 15})), core::Error);
  EXPECT_THROW(scf::max_abs_diff(y, core::TensorF({16, 8})), core::Error);
  // A softmax override must return one probability per logit; a short
  // row would leave the attention row reading past its end.
  auto short_softmax = config;
  short_softmax.softmax_override = [](std::span<const float> logits) {
    return std::vector<float>(logits.size() - 1, 0.0F);
  };
  EXPECT_THROW(scf::TransformerBlock(short_softmax).forward(x), core::Error);
}

}  // namespace
