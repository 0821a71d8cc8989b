#include "scf/fabric.hpp"

#include <gtest/gtest.h>

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
