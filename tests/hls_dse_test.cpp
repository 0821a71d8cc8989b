#include "hls/dse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "core/parallel.hpp"

namespace icsc::hls {
namespace {

/// Run the DSE suite with a real multi-thread pool even on 1-core hosts so
/// the serial-vs-parallel determinism tests exercise the parallel path.
class DsePoolEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { core::set_parallel_threads(4); }
  void TearDown() override { core::set_parallel_threads(0); }
};

[[maybe_unused]] const auto* const kDsePoolEnvironment =
    ::testing::AddGlobalTestEnvironment(new DsePoolEnvironment);

/// Field-by-field bit-exact comparison of two DSE results.
void expect_identical(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].unroll, b.evaluated[i].unroll);
    EXPECT_EQ(a.evaluated[i].budget.alus, b.evaluated[i].budget.alus);
    EXPECT_EQ(a.evaluated[i].budget.muls, b.evaluated[i].budget.muls);
    EXPECT_EQ(a.evaluated[i].budget.mem_ports,
              b.evaluated[i].budget.mem_ports);
    // Bit-exact: the parallel path must not reorder or re-associate any
    // floating-point work.
    EXPECT_EQ(a.evaluated[i].total_latency_us, b.evaluated[i].total_latency_us);
    EXPECT_EQ(a.evaluated[i].area_score, b.evaluated[i].area_score);
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].id, b.front[i].id);
  }
}

DseConfig small_config() {
  DseConfig config;
  config.iterations = 256;
  config.space.unroll_factors = {1, 2, 4};
  config.space.alu_counts = {1, 2, 4};
  config.space.mul_counts = {1, 2};
  config.space.mem_port_counts = {1, 2};
  return config;
}

TEST(Estimate, DeviceCatalog) {
  EXPECT_GT(device_alveo_u50().luts, device_kintex7_410t().luts);
  EXPECT_GT(device_virtex7_485t().dsps, device_kintex7_410t().dsps);
  for (const auto& dev : {device_kintex7_410t(), device_virtex7_485t(),
                          device_alveo_u50()}) {
    EXPECT_GT(dev.base_fmax_mhz, 0.0);
  }
}

TEST(Estimate, CostGrowsWithParallelism) {
  const auto kernel = make_dot_kernel(16);
  const auto config = small_config();
  const auto narrow = evaluate_design(kernel, 1, ResourceBudget{1, 1, 1, 1}, config);
  const auto wide = evaluate_design(kernel, 1, ResourceBudget{8, 8, 1, 4}, config);
  EXPECT_GE(narrow.total_latency_us, wide.total_latency_us);
  EXPECT_LE(narrow.area_score, wide.area_score);
}

TEST(Estimate, UnrollTradesAreaForLatency) {
  const auto kernel = make_dot_kernel(8);
  auto config = small_config();
  // Generous budget so the unrolled copies actually run in parallel.
  ResourceBudget budget{16, 16, 1, 8};
  const auto u1 = evaluate_design(kernel, 1, budget, config);
  const auto u4 = evaluate_design(kernel, 4, budget, config);
  EXPECT_LT(u4.total_latency_us, u1.total_latency_us);
  EXPECT_GT(u4.area_score, u1.area_score);
}

TEST(Estimate, ReportFieldsConsistent) {
  const auto kernel = make_fir_kernel(8);
  const auto point =
      evaluate_design(kernel, 2, ResourceBudget{2, 2, 1, 1}, small_config());
  EXPECT_GT(point.cost.luts, 0);
  EXPECT_GT(point.cost.ffs, 0);
  EXPECT_GT(point.cost.dsps, 0);  // multipliers present
  EXPECT_GT(point.cost.fmax_mhz, 0.0);
  EXPECT_GT(point.cost.cycles, 0);
  EXPECT_TRUE(point.cost.fits);
  EXPECT_NEAR(point.cost.latency_us,
              point.cost.cycles / point.cost.fmax_mhz, 1e-9);
}

TEST(Dse, ExhaustiveCoversSpace) {
  const auto kernel = make_dot_kernel(8);
  const auto config = small_config();
  const auto result = dse_exhaustive(kernel, config);
  EXPECT_EQ(result.evaluations, 3u * 3u * 2u * 2u);  // every attempt counted
  EXPECT_EQ(result.feasible, result.evaluated.size());
  EXPECT_LE(result.feasible, result.evaluations);
  EXPECT_FALSE(result.front.empty());
  EXPECT_LE(result.front.size(), result.evaluated.size());
}

TEST(Dse, FrontIsNonDominated) {
  const auto kernel = make_spmv_row_kernel(6);
  const auto result = dse_exhaustive(kernel, small_config());
  for (const auto& a : result.front) {
    for (const auto& b : result.front) {
      if (&a == &b) continue;
      EXPECT_FALSE(core::dominates(a.objectives, b.objectives));
    }
  }
}

TEST(Dse, RandomSubsetOfExhaustiveQuality) {
  const auto kernel = make_dot_kernel(8);
  const auto config = small_config();
  const auto exhaustive = dse_exhaustive(kernel, config);
  const auto random = dse_random(kernel, config, 12, 7);
  EXPECT_EQ(random.evaluations, 12u);  // all attempts, fitting or not
  EXPECT_EQ(random.feasible, random.evaluated.size());
  const double ref_lat = 1e5, ref_area = 1e7;
  EXPECT_LE(dse_hypervolume(random, ref_lat, ref_area),
            dse_hypervolume(exhaustive, ref_lat, ref_area) + 1e-9);
}

TEST(Dse, HillClimbFindsGoodPoints) {
  const auto kernel = make_dot_kernel(16);
  const auto config = small_config();
  const auto exhaustive = dse_exhaustive(kernel, config);
  const auto climbed = dse_hill_climb(kernel, config, 3, 11);
  EXPECT_GT(climbed.evaluations, 0u);
  EXPECT_EQ(climbed.feasible, climbed.evaluated.size());
  // Hill climbing with a few restarts should reach at least 60% of the
  // exhaustive hypervolume at a fraction of the evaluations.
  const double ref_lat = 1e5, ref_area = 1e7;
  EXPECT_GE(dse_hypervolume(climbed, ref_lat, ref_area),
            0.6 * dse_hypervolume(exhaustive, ref_lat, ref_area));
}

TEST(Dse, PipelinedModeImprovesLatencyNeverArea) {
  const auto kernel = make_spmv_row_kernel(6);
  DseConfig sequential = small_config();
  DseConfig pipelined = sequential;
  pipelined.pipelined = true;
  for (const int unroll : {1, 2}) {
    for (const int units : {1, 2}) {
      ResourceBudget budget;
      budget.alus = units;
      budget.muls = units;
      budget.mem_ports = units;
      const auto seq = evaluate_design(kernel, unroll, budget, sequential);
      const auto pipe = evaluate_design(kernel, unroll, budget, pipelined);
      EXPECT_LE(pipe.total_latency_us, seq.total_latency_us);
      EXPECT_DOUBLE_EQ(pipe.area_score, seq.area_score);
    }
  }
}

TEST(Dse, PipelinedFrontDominatesSequentialFront) {
  const auto kernel = make_dot_kernel(8);
  DseConfig sequential = small_config();
  DseConfig pipelined = sequential;
  pipelined.pipelined = true;
  const auto seq = dse_exhaustive(kernel, sequential);
  const auto pipe = dse_exhaustive(kernel, pipelined);
  double ref_lat = 0.0, ref_area = 0.0;
  for (const auto& fp : seq.front) {
    ref_lat = std::max(ref_lat, 1.2 * fp.objectives[0]);
    ref_area = std::max(ref_area, 1.2 * fp.objectives[1]);
  }
  EXPECT_GE(dse_hypervolume(pipe, ref_lat, ref_area),
            dse_hypervolume(seq, ref_lat, ref_area));
}

TEST(Dse, ParallelExhaustiveBitIdenticalToSerial) {
  const auto kernel = make_spmv_row_kernel(6);
  const auto config = small_config();
  DseResult serial;
  {
    core::ScopedSerial guard;
    serial = dse_exhaustive(kernel, config);
  }
  const auto parallel = dse_exhaustive(kernel, config);
  expect_identical(serial, parallel);
}

TEST(Dse, ParallelRandomBitIdenticalToSerial) {
  const auto kernel = make_fir_kernel(8);
  const auto config = small_config();
  DseResult serial;
  {
    core::ScopedSerial guard;
    serial = dse_random(kernel, config, 40, 21);
  }
  const auto parallel = dse_random(kernel, config, 40, 21);
  expect_identical(serial, parallel);
}

TEST(Dse, ParallelHillClimbBitIdenticalToSerial) {
  const auto kernel = make_dot_kernel(8);
  const auto config = small_config();
  DseResult serial;
  {
    core::ScopedSerial guard;
    serial = dse_hill_climb(kernel, config, 2, 5);
  }
  const auto parallel = dse_hill_climb(kernel, config, 2, 5);
  expect_identical(serial, parallel);
}

TEST(Dse, ResultsIdenticalSeesEveryComparedField) {
  const auto base = dse_exhaustive(make_dot_kernel(8), small_config());
  ASSERT_FALSE(base.evaluated.empty());
  ASSERT_FALSE(base.front.empty());
  EXPECT_TRUE(dse_results_identical(base, base));
  const std::vector<std::function<void(DseResult&)>> edits = {
      [](DseResult& r) { ++r.evaluations; },
      [](DseResult& r) { ++r.feasible; },
      [](DseResult& r) { r.evaluated.pop_back(); },
      [](DseResult& r) { r.front.pop_back(); },
      [](DseResult& r) { ++r.evaluated[0].unroll; },
      [](DseResult& r) { ++r.evaluated[0].budget.alus; },
      [](DseResult& r) { ++r.evaluated[0].budget.muls; },
      [](DseResult& r) { ++r.evaluated[0].budget.mem_ports; },
      [](DseResult& r) { ++r.evaluated[0].cost.cycles; },
      [](DseResult& r) {
        auto& v = r.evaluated[0].total_latency_us;
        v = std::nextafter(v, INFINITY);
      },
      [](DseResult& r) {
        auto& v = r.evaluated[0].area_score;
        v = std::nextafter(v, INFINITY);
      },
      [](DseResult& r) { ++r.front[0].id; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    DseResult edited = base;
    edits[i](edited);
    EXPECT_FALSE(dse_results_identical(base, edited)) << "edit " << i;
  }
}

TEST(Dse, DeterministicGivenSeed) {
  const auto kernel = make_fir_kernel(8);
  const auto config = small_config();
  const auto a = dse_random(kernel, config, 10, 3);
  const auto b = dse_random(kernel, config, 10, 3);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.evaluated[i].total_latency_us,
                     b.evaluated[i].total_latency_us);
  }
}

}  // namespace
}  // namespace icsc::hls
