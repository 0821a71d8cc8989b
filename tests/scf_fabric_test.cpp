#include "scf/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "scf/kpi.hpp"

namespace icsc::scf {
namespace {

TransformerConfig bench_model() {
  TransformerConfig cfg;
  cfg.seq_len = 128;
  cfg.d_model = 256;
  cfg.heads = 4;
  cfg.d_ff = 1024;
  return cfg;
}

std::vector<KernelCall> bench_trace() { return kernel_trace(bench_model()); }

TEST(Fabric, SingleKernelGemm) {
  const ScalableComputeFabric fabric;
  KernelCall call{KernelCall::Kind::kGemm, 256, 256, 256, "test"};
  const auto stats = fabric.run_kernel(call);
  EXPECT_EQ(stats.flops, 2ull * 256 * 256 * 256);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.energy_pj, 0.0);
}

TEST(Fabric, TraceAccumulates) {
  const ScalableComputeFabric fabric;
  const auto trace = bench_trace();
  const auto stats = fabric.run_trace(trace);
  double expected_flops = 0.0;
  for (const auto& call : trace) {
    expected_flops += static_cast<double>(fabric.run_kernel(call).flops);
  }
  EXPECT_NEAR(static_cast<double>(stats.flops), expected_flops, 1.0);
  EXPECT_GT(stats.cycles, 0u);
}

TEST(Fabric, MoreCusFaster) {
  const auto trace = bench_trace();
  FabricConfig one;
  one.num_cus = 1;
  FabricConfig eight;
  eight.num_cus = 8;
  const auto s1 = ScalableComputeFabric(one).run_trace(trace);
  const auto s8 = ScalableComputeFabric(eight).run_trace(trace);
  EXPECT_LT(s8.cycles, s1.cycles);
}

TEST(Fabric, StrongScalingEfficiencyDecays) {
  const auto points = strong_scaling(bench_model(), FabricConfig{}, 64);
  ASSERT_GE(points.size(), 6u);  // 1, 2, 4, 8, 16, 32, 64
  EXPECT_NEAR(points.front().efficiency, 1.0, 1e-9);
  for (std::size_t i = 1; i < points.size(); ++i) {
    // Speedup grows monotonically ...
    EXPECT_GE(points[i].speedup, points[i - 1].speedup * 0.99);
    // ... while parallel efficiency decays (Amdahl + interconnect).
    EXPECT_LE(points[i].efficiency, points[i - 1].efficiency + 1e-9);
  }
  EXPECT_LT(points.back().efficiency, 0.9);
  EXPECT_GT(points.back().speedup, 2.0);
}

TEST(Fabric, PowerIncludesUncore) {
  const auto trace = bench_trace();
  FabricConfig config;
  config.num_cus = 1;
  const ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(trace);
  // One CU plus uncore: more than the bare CU average power.
  EXPECT_GT(fabric.average_power_w(stats), 0.1);
  EXPECT_LT(fabric.average_power_w(stats), 2.0);
}

TEST(Fabric, SixteenCuFabricLandsAboveOneWatt) {
  // The ICSC target zone of Fig. 7: >1 W HPC inference.
  const auto trace = bench_trace();
  FabricConfig config;
  config.num_cus = 16;
  const ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(trace);
  EXPECT_GT(fabric.average_power_w(stats), 1.0);
  EXPECT_GT(stats.gflops(config.cu.fclk_mhz), 200.0);
}

TEST(VectorCu, ConfigShape) {
  const auto vec = vector_cu_config();
  const CuConfig tensor;
  EXPECT_GT(vec.cores, 4 * tensor.cores);
  EXPECT_LT(vec.tensor_rows * vec.tensor_cols,
            tensor.tensor_rows * tensor.tensor_cols / 10);
  EXPECT_NEAR(vec.area_mm2, tensor.area_mm2, 0.5);
}

TEST(HeteroFabric, GemmGoesToTensorPool) {
  FabricConfig config;
  config.num_cus = 8;
  config.vector_cus = 2;
  const ScalableComputeFabric fabric(config);
  const KernelCall gemm{KernelCall::Kind::kGemm, 256, 256, 256, "g"};
  const auto stats = fabric.run_kernel(gemm);
  EXPECT_EQ(stats.flops, 2ull * 256 * 256 * 256);
  // Halving the tensor pool slows GEMMs even with more vector CUs.
  FabricConfig fewer = config;
  fewer.num_cus = 2;
  fewer.vector_cus = 8;
  const ScalableComputeFabric fabric2(fewer);
  EXPECT_GT(fabric2.run_kernel(gemm).cycles, stats.cycles);
}

TEST(HeteroFabric, ElementwiseGoesToVectorPool) {
  FabricConfig config;
  config.num_cus = 8;
  config.vector_cus = 2;
  const ScalableComputeFabric fabric(config);
  const KernelCall softmax{KernelCall::Kind::kSoftmax, 65536, 0, 0, "s"};
  const auto stats = fabric.run_kernel(softmax);
  FabricConfig more = config;
  more.vector_cus = 8;
  const ScalableComputeFabric fabric2(more);
  EXPECT_LT(fabric2.run_kernel(softmax).cycles, stats.cycles);
}

TEST(HeteroFabric, MixBeatsHomogeneousOnTransformer) {
  // Same total CU count: trading a few tensor CUs for vector CUs speeds up
  // the elementwise-heavy transformer trace.
  const auto points = sweep_cu_mix(bench_model(), 16);
  ASSERT_GE(points.size(), 3u);
  const auto& homogeneous = points.front();  // vector_cus == 0
  double best_mixed_cycles = 1e300;
  for (std::size_t i = 1; i < points.size(); ++i) {
    best_mixed_cycles = std::min(best_mixed_cycles, points[i].cycles);
  }
  EXPECT_LT(best_mixed_cycles, homogeneous.cycles);
}

TEST(HeteroFabric, SweepCoversMixRange) {
  const auto points = sweep_cu_mix(bench_model(), 16);
  EXPECT_EQ(points.front().vector_cus, 0);
  EXPECT_EQ(points.front().tensor_cus, 16);
  for (const auto& p : points) {
    EXPECT_EQ(p.tensor_cus + p.vector_cus, 16);
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GT(p.tflops_per_watt, 0.0);
  }
}

TEST(HeteroFabric, AllTensorMixDegradesGracefully) {
  // Extreme mixes still execute every kernel.
  FabricConfig config;
  config.num_cus = 15;
  config.vector_cus = 1;
  const ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(bench_trace());
  EXPECT_GT(stats.flops, 0u);
  EXPECT_GT(fabric.average_power_w(stats), 0.5);
}

// ---------------------------------------------------------------------------
// Fabric.RunStatsGolden: every statistic and CU census a fabric reports,
// pinned for one-pool fabrics and tensor/vector CU mixes on two traces.

struct FabricCase {
  const char* name;
  int tensor_cus;
  int vector_cus;  // 0: one-pool fabric
  int forced_tensor = 0;
  int forced_vector = 0;
  bool repartition = true;
  double dropout_rate = 0.0;
  double delay_rate = 0.0;
  double dispatch_cycles = 400.0;
};

struct RunGolden {
  std::uint64_t cycles;
  std::uint64_t flops;
  std::uint64_t energy_bits;  // bit pattern of energy_pj
  bool completed;
  std::size_t lost_kernels;
  std::array<int, 4> tensor;  // total, failed, slow and active CUs
  std::array<int, 4> vector;
  bool operational;
  std::uint64_t power_bits;  // average_power_w
  std::uint64_t tflops_per_watt_bits;

  bool operator==(const RunGolden&) const = default;
};

void PrintTo(const RunGolden& g, std::ostream* os) {
  const auto census = [os](const std::array<int, 4>& c) {
    *os << "{" << c[0] << ", " << c[1] << ", " << c[2] << ", " << c[3] << "}";
  };
  *os << "{" << g.cycles << ", " << g.flops << ", 0x" << std::hex
      << g.energy_bits << std::dec << "ULL, " << std::boolalpha << g.completed
      << ", " << g.lost_kernels << ", ";
  census(g.tensor);
  *os << ",\n ";
  census(g.vector);
  *os << ", " << g.operational << ", 0x" << std::hex << g.power_bits
      << "ULL, 0x" << g.tflops_per_watt_bits << std::dec << "ULL}";
}

std::array<int, 4> census(const FabricHealth& h) {
  return {h.total_cus, h.failed_cus, h.slow_cus, h.active_cus};
}

RunGolden run_case(const FabricCase& c, const std::vector<KernelCall>& trace) {
  FabricConfig config;
  config.num_cus = c.tensor_cus;
  config.vector_cus = c.vector_cus;
  config.forced_failed_cus = c.forced_tensor;
  config.forced_failed_vector_cus = c.forced_vector;
  config.repartition_on_failure = c.repartition;
  config.faults.dropout_rate = c.dropout_rate;
  config.faults.delay_rate = c.delay_rate;
  config.dispatch_cycles = c.dispatch_cycles;
  const ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(trace);
  return {stats.cycles,
          stats.flops,
          std::bit_cast<std::uint64_t>(stats.energy_pj),
          stats.completed,
          stats.lost_kernels,
          census(fabric.health()),
          census(fabric.vector_health()),
          fabric.operational(),
          std::bit_cast<std::uint64_t>(fabric.average_power_w(stats)),
          std::bit_cast<std::uint64_t>(fabric.tflops_per_watt(stats))};
}

TEST(Fabric, RunStatsGolden) {
  // Forced failures kill the first CUs of a pool; "rigid" turns
  // repartitioning off, so dead CUs' shares are lost. Dropout and delay
  // faults kill or slow CUs by fault site (vector CUs from site 1000).
  const FabricCase cases[] = {
      {"1 CU", 1, 0},
      {"16 CUs", 16, 0},
      {"64 CUs", 64, 0},
      {"16 CUs rigid", 16, 0, 0, 0, false},
      {"16 CUs, 4 failed", 16, 0, 4},
      {"16 CUs, 4 failed, rigid", 16, 0, 4, 0, false},
      {"16 CUs, 15 failed", 16, 0, 15},
      {"16 CUs, 15 failed, rigid", 16, 0, 15, 0, false},
      {"16 CUs, dropout", 16, 0, 0, 0, true, 0.25},
      {"16 CUs, dropout, rigid", 16, 0, 0, 0, false, 0.25},
      {"16 CUs, delay", 16, 0, 0, 0, true, 0.0, 0.25},
      {"16 CUs, delay, rigid", 16, 0, 0, 0, false, 0.0, 0.25},
      {"16 CUs, no dispatch cost", 16, 0, 0, 0, true, 0.0, 0.0, 0.0},
      {"12+4", 12, 4},
      {"15+1", 15, 1},
      {"8+8", 8, 8},
      {"12+4, dropout", 12, 4, 0, 0, true, 0.25},
      {"12+4, tensor pool dead", 12, 4, 12, 0},
      {"12+4, tensor pool dead, rigid", 12, 4, 12, 0, false},
      {"12+4, vector pool dead", 12, 4, 0, 4},
      {"12+4, vector pool dead, rigid", 12, 4, 0, 4, false},
      {"12+4, both pools dead", 12, 4, 12, 4},
      {"12+4, both pools dead, rigid", 12, 4, 12, 4, false},
  };
  // The default block, and e2ebench's `inference` block.
  TransformerConfig inference;
  inference.seq_len = 64;
  inference.d_model = 128;
  inference.heads = 4;
  inference.d_ff = 512;
  const std::pair<const char*, std::vector<KernelCall>> traces[] = {
      {"default block", kernel_trace(TransformerConfig{})},
      {"inference block", kernel_trace(inference)},
  };
  const RunGolden goldens[2][std::size(cases)] = {
      {
          {933997, 219545600, 0x41b978be248e7835ULL, true, 0, {1, 0, 0, 1},
           {0, 0, 0, 0}, true, 0x3fcaf0aadb7cd96fULL, 0x3fe07099ae869f7fULL},
          {133404, 219545600, 0x41b3b12a16d1408eULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3ff23a2937c18071ULL, 0x3fe543d2582cacf4ULL},
          {122652, 219545600, 0x41cb4de6aa92ebf8ULL, true, 0, {64, 0, 0, 64},
           {0, 0, 0, 0}, true, 0x400b7d1b2dc9223eULL, 0x3fceac3e270d8ec5ULL},
          {133404, 219545600, 0x41b3b12a16d1408eULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3ff23a2937c18071ULL, 0x3fe543d2582cacf4ULL},
          {138189, 219545600, 0x41b0a94c654b1470ULL, true, 0, {16, 4, 0, 12},
           {0, 0, 0, 0}, true, 0x3fedc69bf36b17f6ULL, 0x3fe9221033f16d27ULL},
          {133404, 164659200, 0x41ae9341ebf7187cULL, false, 23, {16, 4, 0, 12},
           {0, 0, 0, 0}, true, 0x3fec4d0062fe69a1ULL, 0x3fe48b28f9329826ULL},
          {933997, 219545600, 0x41b978be248e7835ULL, true, 0, {16, 15, 0, 1},
           {0, 0, 0, 0}, true, 0x3fcaf0aadb7cd96fULL, 0x3fe07099ae869f7fULL},
          {133404, 13721600, 0x4189673edd7ee30fULL, false, 23, {16, 15, 0, 1},
           {0, 0, 0, 0}, true, 0x3fc7837b0247269fULL, 0x3fd07bec76a249f9ULL},
          {136719, 219545600, 0x41b1737d5d9fd542ULL, true, 0, {16, 3, 0, 13},
           {0, 0, 0, 0}, true, 0x3fef85cb00bdefcdULL, 0x3fe7fede3b6cc551ULL},
          {133404, 178380800, 0x41b063833e30f952ULL, false, 23, {16, 3, 0, 13},
           {0, 0, 0, 0}, true, 0x3fee56d4e61f8f72ULL, 0x3fe4c2a16ee655ddULL},
          {257608, 219545600, 0x41b97c5dd1408e78ULL, true, 0, {16, 0, 3, 16},
           {0, 0, 0, 0}, true, 0x3fe86eb4060f0297ULL, 0x3fe06e4346ebf8d9ULL},
          {257608, 219545600, 0x41b97c5dd1408e78ULL, true, 0, {16, 0, 3, 16},
           {0, 0, 0, 0}, true, 0x3fe86eb4060f0297ULL, 0x3fe06e4346ebf8d9ULL},
          {124204, 219545600, 0x41b3434d16d1408eULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3ff326917af9041aULL, 0x3fe5bd1a6f5cbde4ULL},
          {126236, 219545600, 0x41b10671c8faf0d1ULL, true, 0, {12, 0, 0, 12},
           {4, 0, 0, 4}, true, 0x3ff0a74d12c7560fULL, 0x3fe8988ef0f05db1ULL},
          {147740, 219545600, 0x41b35dbcba695e3bULL, true, 0, {15, 0, 0, 15},
           {1, 0, 0, 1}, true, 0x3ff02fa6885cb784ULL, 0x3fe59f6db37fedd4ULL},
          {170949, 219545600, 0x41b38c766e9bd37aULL, true, 0, {8, 0, 0, 8},
           {8, 0, 0, 8}, true, 0x3fec3dac04f5c757ULL, 0x3fe56bbee0ee1d02ULL},
          {126236, 219545600, 0x41b04ba3b292ebf6ULL, true, 0, {12, 1, 0, 11},
           {4, 0, 0, 4}, true, 0x3fefe125da3a3d0aULL, 0x3fe9b2844a715e85ULL},
          {6832518, 219545600, 0x41eb30eea0f06ad9ULL, true, 0, {12, 12, 0, 0},
           {4, 0, 0, 4}, true, 0x3fcf7344b0195ca2ULL, 0x3faeccebc651b3f0ULL},
          {10768, 1441792, 0x41581dc50239e0d6ULL, false, 14, {12, 12, 0, 0},
           {4, 0, 0, 4}, true, 0x3fd148cb5e11caf1ULL, 0x3fcd311fae73fdc2ULL},
          {138189, 219545600, 0x41b0a94c654b1470ULL, true, 0, {12, 0, 0, 12},
           {4, 4, 0, 0}, true, 0x3fedc69bf36b17f6ULL, 0x3fe9221033f16d27ULL},
          {115468, 218103808, 0x41af1e62d3a14a44ULL, false, 9, {12, 0, 0, 12},
           {4, 4, 0, 0}, true, 0x3ff0a39616254336ULL, 0x3feabc80bb0d1c7aULL},
          {0, 0, 0x0ULL, false, 23, {12, 12, 0, 0},
           {4, 4, 0, 0}, false, 0x0ULL, 0x0ULL},
          {0, 0, 0x0ULL, false, 23, {12, 12, 0, 0},
           {4, 4, 0, 0}, false, 0x0ULL, 0x0ULL},
      },
      {
          {167502, 27623424, 0x4190c0d39afdc61fULL, true, 0, {1, 0, 0, 1},
           {0, 0, 0, 0}, true, 0x3fc8b355c6d94c98ULL, 0x3fd928c9ccc9ac74ULL},
          {43289, 27623424, 0x41939238d9999999ULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3febe9bd2187753aULL, 0x3fd58969c0f815b7ULL},
          {40601, 27623424, 0x41ae09105c1ab68aULL, true, 0, {64, 0, 0, 64},
           {0, 0, 0, 0}, true, 0x4006d635ec83563fULL, 0x3fbc111ec22397faULL},
          {43289, 27623424, 0x41939238d9999999ULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3febe9bd2187753aULL, 0x3fd58969c0f815b7ULL},
          {44490, 27623424, 0x418f143b7f420a64ULL, true, 0, {16, 4, 0, 12},
           {0, 0, 0, 0}, true, 0x3fe5908e30048d41ULL, 0x3fdb1fd86d92b26eULL},
          {43289, 20717568, 0x418eb3f6239e0d5cULL, false, 23, {16, 4, 0, 12},
           {0, 0, 0, 0}, true, 0x3fe5e5106881c0e3ULL, 0x3fd497abf057af4cULL},
          {167502, 27623424, 0x4190c0d39afdc61fULL, true, 0, {16, 15, 0, 1},
           {0, 0, 0, 0}, true, 0x3fc8b355c6d94c98ULL, 0x3fd928c9ccc9ac74ULL},
          {43289, 1726464, 0x416dfa89630f9526ULL, false, 23, {16, 15, 0, 1},
           {0, 0, 0, 0}, true, 0x3fc560d5aec843b5ULL, 0x3fbc1eb89119e9caULL},
          {44122, 27623424, 0x4190f96576666667ULL, true, 0, {16, 3, 0, 13},
           {0, 0, 0, 0}, true, 0x3fe7c0896917473dULL, 0x3fd8d4f0a6e9ee90ULL},
          {43289, 22444032, 0x4190680a83c1ab69ULL, false, 23, {16, 3, 0, 13},
           {0, 0, 0, 0}, true, 0x3fe7663b96c32df8ULL, 0x3fd4dfc3cf7c38e3ULL},
          {77378, 27623424, 0x4199ee8a08e78356ULL, true, 0, {16, 0, 3, 16},
           {0, 0, 0, 0}, true, 0x3fe4b0e96934437eULL, 0x3fd04111d4caff8aULL},
          {77378, 27623424, 0x4199ee8a08e78356ULL, true, 0, {16, 0, 3, 16},
           {0, 0, 0, 0}, true, 0x3fe4b0e96934437eULL, 0x3fd04111d4caff8aULL},
          {34089, 27623424, 0x4191dac4d9999999ULL, true, 0, {16, 0, 0, 16},
           {0, 0, 0, 0}, true, 0x3ff02b2a350393b3ULL, 0x3fd79b7efc2e0e91ULL},
          {41497, 27623424, 0x419030ea89ecb50eULL, true, 0, {12, 0, 0, 12},
           {4, 0, 0, 4}, true, 0x3fe816e5e30865bcULL, 0x3fda08692919931dULL},
          {46873, 27623424, 0x419267a0c537a6f5ULL, true, 0, {15, 0, 0, 15},
           {1, 0, 0, 1}, true, 0x3fe83e0f51e28d72ULL, 0x3fd6e6d1c2d40dcdULL},
          {40601, 27623424, 0x418d02cdf187ca93ULL, true, 0, {8, 0, 0, 8},
           {8, 0, 0, 8}, true, 0x3fe60eceb4a05178ULL, 0x3fdd0ed858556addULL},
          {41497, 27623424, 0x418fbca6bb805efaULL, true, 0, {12, 1, 0, 11},
           {4, 0, 0, 4}, true, 0x3fe79c049b5a5141ULL, 0x3fda8fe76593fcddULL},
          {863174, 27623424, 0x41bb78176de9bd38ULL, true, 0, {12, 12, 0, 0},
           {4, 0, 0, 4}, true, 0x3fcf6fbd14916bc9ULL, 0x3faeb063a3bf38ebULL},
          {5392, 360448, 0x4143f08c3e549760ULL, false, 14, {12, 12, 0, 0},
           {4, 0, 0, 4}, true, 0x3fcc8a177c644380ULL, 0x3fc1a73d341286f7ULL},
          {44490, 27623424, 0x418f143b7f420a64ULL, true, 0, {12, 0, 0, 12},
           {4, 4, 0, 0}, true, 0x3fe5908e30048d41ULL, 0x3fdb1fd86d92b26eULL},
          {36105, 27262976, 0x418c08b18d2bc79cULL, false, 9, {12, 0, 0, 12},
           {4, 4, 0, 0}, true, 0x3fe7f822138f4882ULL, 0x3fddada47ad8e817ULL},
          {0, 0, 0x0ULL, false, 23, {12, 12, 0, 0},
           {4, 4, 0, 0}, false, 0x0ULL, 0x0ULL},
          {0, 0, 0x0ULL, false, 23, {12, 12, 0, 0},
           {4, 4, 0, 0}, false, 0x0ULL, 0x0ULL},
      },
  };
  for (std::size_t t = 0; t < std::size(traces); ++t) {
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      EXPECT_EQ(run_case(cases[c], traces[t].second), goldens[t][c])
          << cases[c].name << " on the " << traces[t].first;
    }
  }
}

TEST(CuMix, HomogeneousRowIsTheOnePoolFabric) {
  // The 16/0 row of the mix sweep is the plain 16-CU fabric: same cycles,
  // and static power for 16 CUs, not 32.
  const TransformerConfig model;
  const auto row = sweep_cu_mix(model, 16).front();
  FabricConfig config;
  config.num_cus = 16;
  const ScalableComputeFabric fabric(config);
  const auto stats = fabric.run_trace(kernel_trace(model));
  EXPECT_EQ(row.tensor_cus, 16);
  EXPECT_EQ(row.vector_cus, 0);
  EXPECT_EQ(row.cycles, static_cast<double>(stats.cycles));
  EXPECT_EQ(row.gflops, stats.gflops(config.cu.fclk_mhz));
  EXPECT_EQ(row.tflops_per_watt, fabric.tflops_per_watt(stats));
}

TEST(Kpi, Fig1SurveyShape) {
  const auto survey = fig1_survey();
  EXPECT_GE(survey.size(), 12u);
  bool has_cpu = false, has_gpu = false, has_imc = false, has_fpga = false;
  for (const auto& e : survey) {
    EXPECT_GT(e.tops, 0.0);
    EXPECT_GT(e.power_w, 0.0);
    has_cpu |= e.cls == PlatformClass::kCpu;
    has_gpu |= e.cls == PlatformClass::kGpu;
    has_imc |= e.cls == PlatformClass::kImc;
    has_fpga |= e.cls == PlatformClass::kFpga;
  }
  EXPECT_TRUE(has_cpu && has_gpu && has_imc && has_fpga);
}

TEST(Kpi, Fig1CpusLeastEfficientImcMostEfficient) {
  // The Fig. 1 story: CPUs are the least energy-efficient class; IMC
  // devices reach the highest TOPs/W.
  const auto survey = fig1_survey();
  double best_cpu = 0.0, worst_imc = 1e18, best_overall = 0.0;
  std::string best_name;
  for (const auto& e : survey) {
    if (e.cls == PlatformClass::kCpu) {
      best_cpu = std::max(best_cpu, e.tops_per_watt());
    }
    if (e.cls == PlatformClass::kImc) {
      worst_imc = std::min(worst_imc, e.tops_per_watt());
    }
    if (e.tops_per_watt() > best_overall) {
      best_overall = e.tops_per_watt();
      best_name = e.name;
    }
  }
  EXPECT_LT(best_cpu, worst_imc);
  EXPECT_NE(best_name.find("DIMC"), std::string::npos)
      << "digital IMC should top the TOPs/W ranking, got " << best_name;
}

TEST(Kpi, Fig7ClusterInSubWattBand) {
  // Paper: RISC-V accelerators are "clustered, especially in the 100mW-1W
  // power range"; the ICSC target is >1W.
  const double in_band = fig7_fraction_in_power_band(0.04, 1.0);
  EXPECT_GT(in_band, 0.5);
  for (const auto& e : fig7_survey()) {
    EXPECT_GT(e.power_w, 0.0);
    EXPECT_GT(e.gops, 0.0);
  }
}

}  // namespace
}  // namespace icsc::scf
