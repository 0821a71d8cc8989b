#include "scf/hetero_fabric.hpp"

#include <gtest/gtest.h>

namespace icsc::scf {
namespace {

TransformerConfig model() {
  TransformerConfig cfg;
  cfg.seq_len = 128;
  cfg.d_model = 256;
  cfg.heads = 4;
  cfg.d_ff = 1024;
  return cfg;
}

std::vector<KernelCall> trace() { return kernel_trace(model()); }

TEST(VectorCu, ConfigShape) {
  const auto vec = vector_cu_config();
  const CuConfig tensor;
  EXPECT_GT(vec.cores, 4 * tensor.cores);
  EXPECT_LT(vec.tensor_rows * vec.tensor_cols,
            tensor.tensor_rows * tensor.tensor_cols / 10);
  EXPECT_NEAR(vec.area_mm2, tensor.area_mm2, 0.5);
}

TEST(HeteroFabric, GemmGoesToTensorPool) {
  HeteroFabricConfig config;
  config.tensor_cus = 8;
  config.vector_cus = 2;
  const HeterogeneousFabric fabric(config);
  const KernelCall gemm{KernelCall::Kind::kGemm, 256, 256, 256, "g"};
  const auto stats = fabric.run_kernel(gemm);
  EXPECT_EQ(stats.flops, 2ull * 256 * 256 * 256);
  // Halving the tensor pool slows GEMMs even with more vector CUs.
  HeteroFabricConfig fewer = config;
  fewer.tensor_cus = 2;
  fewer.vector_cus = 8;
  const HeterogeneousFabric fabric2(fewer);
  EXPECT_GT(fabric2.run_kernel(gemm).cycles, stats.cycles);
}

TEST(HeteroFabric, ElementwiseGoesToVectorPool) {
  HeteroFabricConfig config;
  config.tensor_cus = 8;
  config.vector_cus = 2;
  const HeterogeneousFabric fabric(config);
  const KernelCall softmax{KernelCall::Kind::kSoftmax, 65536, 0, 0, "s"};
  const auto stats = fabric.run_kernel(softmax);
  HeteroFabricConfig more = config;
  more.vector_cus = 8;
  const HeterogeneousFabric fabric2(more);
  EXPECT_LT(fabric2.run_kernel(softmax).cycles, stats.cycles);
}

TEST(HeteroFabric, MixBeatsHomogeneousOnTransformer) {
  // Same total CU count: trading a few tensor CUs for vector CUs speeds up
  // the elementwise-heavy transformer trace.
  const auto points = sweep_cu_mix(model(), 16);
  ASSERT_GE(points.size(), 3u);
  const auto& homogeneous = points.front();  // vector_cus == 0
  double best_mixed_cycles = 1e300;
  for (std::size_t i = 1; i < points.size(); ++i) {
    best_mixed_cycles = std::min(best_mixed_cycles, points[i].cycles);
  }
  EXPECT_LT(best_mixed_cycles, homogeneous.cycles);
}

TEST(HeteroFabric, SweepCoversMixRange) {
  const auto points = sweep_cu_mix(model(), 16);
  EXPECT_EQ(points.front().vector_cus, 0);
  EXPECT_EQ(points.front().tensor_cus, 16);
  for (const auto& p : points) {
    EXPECT_EQ(p.vector_cus == 0 ? 16 : p.tensor_cus + p.vector_cus, 16);
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GT(p.tflops_per_watt, 0.0);
  }
}

TEST(HeteroFabric, AllTensorMixDegradesGracefully) {
  // Extreme mixes still execute every kernel.
  HeteroFabricConfig config;
  config.tensor_cus = 15;
  config.vector_cus = 1;
  const HeterogeneousFabric fabric(config);
  const auto stats = fabric.run_trace(trace());
  EXPECT_GT(stats.flops, 0u);
  EXPECT_GT(fabric.average_power_w(stats), 0.5);
}

}  // namespace
}  // namespace icsc::scf
