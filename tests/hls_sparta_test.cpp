#include "hls/sparta.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "fuzz_mutate.hpp"
#include "hls/openmp_front.hpp"

namespace icsc::hls {
namespace {

std::vector<SpartaTask> irregular_workload(int scale = 10) {
  const auto graph = core::make_rmat_graph(scale, 8.0, 5);
  return make_spmv_tasks(graph);
}

TEST(Sparta, ExecutesAllTasks) {
  const auto tasks = irregular_workload();
  const auto stats = simulate_sparta(tasks, SpartaConfig{});
  EXPECT_EQ(stats.tasks_executed, tasks.size());
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.mem_requests, 0u);
}

TEST(Sparta, Deterministic) {
  const auto tasks = irregular_workload();
  const auto a = simulate_sparta(tasks, SpartaConfig{});
  const auto b = simulate_sparta(tasks, SpartaConfig{});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST(Sparta, ContextsHideMemoryLatency) {
  // The headline SPARTA property: multithreading hides DRAM latency on
  // irregular kernels.
  const auto tasks = irregular_workload(12);
  SpartaConfig base;
  base.lanes = 4;
  base.contexts_per_lane = 1;
  SpartaConfig threaded = base;
  threaded.contexts_per_lane = 8;
  const auto single = simulate_sparta(tasks, base);
  const auto multi = simulate_sparta(tasks, threaded);
  const double speedup = static_cast<double>(single.cycles) /
                         static_cast<double>(multi.cycles);
  EXPECT_GT(speedup, 2.0);
  EXPECT_GT(multi.lane_utilization, single.lane_utilization);
}

TEST(Sparta, SpatialParallelismScales) {
  const auto tasks = irregular_workload(12);
  SpartaConfig one;
  one.lanes = 1;
  one.contexts_per_lane = 4;
  one.mem_channels = 8;
  SpartaConfig four = one;
  four.lanes = 4;
  const auto s1 = simulate_sparta(tasks, one);
  const auto s4 = simulate_sparta(tasks, four);
  const double speedup =
      static_cast<double>(s1.cycles) / static_cast<double>(s4.cycles);
  EXPECT_GT(speedup, 2.0);
  EXPECT_LE(speedup, 4.5);
}

TEST(Sparta, SerialBaselineIsSlowest) {
  const auto tasks = irregular_workload();
  SpartaConfig full;
  const auto serial = simulate_sparta(tasks, serial_baseline_config(full));
  const auto parallel = simulate_sparta(tasks, full);
  EXPECT_GT(serial.cycles, parallel.cycles);
}

TEST(Sparta, MoreChannelsHelpBandwidthBoundRuns) {
  const auto tasks = irregular_workload(13);
  SpartaConfig narrow;
  narrow.lanes = 8;
  narrow.contexts_per_lane = 8;
  narrow.mem_channels = 1;
  narrow.cache_lines = 16;  // tiny cache => miss traffic dominates
  SpartaConfig wide = narrow;
  wide.mem_channels = 8;
  const auto sn = simulate_sparta(tasks, narrow);
  const auto sw = simulate_sparta(tasks, wide);
  EXPECT_LT(sw.cycles, sn.cycles);
}

TEST(Sparta, BiggerCacheRaisesHitRate) {
  const auto tasks = irregular_workload(12);
  SpartaConfig small_cache;
  small_cache.cache_lines = 64;
  SpartaConfig big_cache;
  big_cache.cache_lines = 1 << 15;
  const auto ss = simulate_sparta(tasks, small_cache);
  const auto sb = simulate_sparta(tasks, big_cache);
  EXPECT_GT(sb.hit_rate(), ss.hit_rate());
  EXPECT_LE(sb.cycles, ss.cycles);
}

TEST(Sparta, WorkloadGeneratorsShape) {
  const auto graph = core::make_rmat_graph(8, 4.0, 3);
  const auto spmv = make_spmv_tasks(graph);
  const auto bfs = make_bfs_tasks(graph);
  const auto pr = make_pagerank_tasks(graph);
  EXPECT_LE(spmv.size(), graph.num_vertices());
  EXPECT_EQ(pr.size(), graph.num_vertices());
  // BFS has an extra compute step per edge.
  std::size_t spmv_steps = 0, bfs_steps = 0;
  for (const auto& t : spmv) spmv_steps += t.steps.size();
  for (const auto& t : bfs) bfs_steps += t.steps.size();
  EXPECT_EQ(bfs_steps, 2 * spmv_steps);
}

TEST(Sparta, AssociativityRaisesHitRateOnSkewedStreams) {
  // Hub vertices conflict in a direct-mapped cache; LRU ways absorb them.
  const auto tasks = irregular_workload(12);
  SpartaConfig direct;
  direct.cache_lines = 64;  // smaller than the hot set: conflicts matter
  SpartaConfig assoc = direct;
  assoc.cache_ways = 8;
  const auto s_direct = simulate_sparta(tasks, direct);
  const auto s_assoc = simulate_sparta(tasks, assoc);
  EXPECT_GT(s_assoc.hit_rate(), s_direct.hit_rate());
  EXPECT_LE(s_assoc.cycles, s_direct.cycles);
}

TEST(Sparta, FullyAssociativeSmallCacheStillWorks) {
  const auto tasks = irregular_workload(10);
  SpartaConfig config;
  config.cache_lines = 64;
  config.cache_ways = 64;  // fully associative
  const auto stats = simulate_sparta(tasks, config);
  EXPECT_EQ(stats.tasks_executed, tasks.size());
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(Sparta, PrivateScratchpadAbsorbsHotAddresses) {
  // Pinning the hot low-index vertices (RMAT hubs live at small ids) into
  // lane-private scratchpads removes NoC/cache traffic and cycles.
  const auto tasks = irregular_workload(12);
  SpartaConfig without;
  SpartaConfig with = without;
  with.private_scratchpad_bytes = 4096;  // first 1024 words of x
  const auto s_without = simulate_sparta(tasks, without);
  const auto s_with = simulate_sparta(tasks, with);
  EXPECT_EQ(s_without.scratchpad_hits, 0u);
  EXPECT_GT(s_with.scratchpad_hits, s_with.mem_requests / 10);
  EXPECT_LT(s_with.cycles, s_without.cycles);
  EXPECT_EQ(s_with.tasks_executed, s_without.tasks_executed);
}

TEST(Sparta, ScratchpadSizeSweepMonotone) {
  const auto tasks = irregular_workload(11);
  std::uint64_t prev_hits = 0;
  for (const std::int64_t bytes : {0ll, 1024ll, 8192ll, 65536ll}) {
    SpartaConfig config;
    config.private_scratchpad_bytes = bytes;
    const auto stats = simulate_sparta(tasks, config);
    EXPECT_GE(stats.scratchpad_hits, prev_hits);
    prev_hits = stats.scratchpad_hits;
  }
}

TEST(OmpFront, ParsesClauses) {
  const auto d = parse_omp_directive(
      "#pragma omp parallel for num_threads(8) schedule(static)");
  EXPECT_EQ(d.num_threads, 8);
  EXPECT_EQ(d.schedule, OmpSchedule::kStatic);
  const auto d2 = parse_omp_directive(
      "#pragma omp parallel for schedule(dynamic, 4)");
  EXPECT_EQ(d2.schedule, OmpSchedule::kDynamic);
  EXPECT_EQ(d2.num_threads, 4);  // default
}

TEST(OmpFront, RejectsUnsupported) {
  for (const char* pragma_text :
       {"#pragma omp sections", "#pragma omp parallel for num_threads(0)",
        "#pragma omp parallel for num_threads(3",
        "#pragma omp parallel for num_threads(abc)",
        "#pragma omp parallel for num_threads(99999999999)",
        "#pragma omp parallel for num_threads(4x)"}) {
    EXPECT_THROW(parse_omp_directive(pragma_text), core::Error)
        << pragma_text;
  }
}

TEST(OmpFront, MutatedPragmasParseOrThrowError) {
  // Seeded mutation fuzz over the pragmas bench_sparta_graphs and the
  // accelerator_design_flow example parse: bit flips, truncations and
  // splices. Every mutant yields a usable directive or throws core::Error;
  // any other exception escapes and fails the test.
  const std::vector<std::string> corpus = {
      "#pragma omp parallel for num_threads(8) schedule(static)",
      "#pragma omp parallel for num_threads(8) schedule(dynamic)"};
  core::Rng rng(0x0A9);
  int accepted = 0;
  for (int it = 0; it < 400; ++it) {
    const std::string text =
        fuzz::mutate(corpus[rng.below(corpus.size())], rng);
    try {
      EXPECT_GE(parse_omp_directive(text).num_threads, 1) << text;
      ++accepted;
    } catch (const core::Error&) {
      // A damaged pragma is rejected: the contract.
    }
  }
  EXPECT_GT(accepted, 0);
}

TEST(OmpFront, LoweringSetsLanesAndPartition) {
  OmpDirective d;
  d.num_threads = 16;
  d.schedule = OmpSchedule::kStatic;
  const auto config = lower_omp_to_sparta(d, SpartaConfig{});
  EXPECT_EQ(config.lanes, 16);
  EXPECT_EQ(config.partition, TaskPartition::kBlocked);
  d.schedule = OmpSchedule::kDynamic;
  EXPECT_EQ(lower_omp_to_sparta(d, SpartaConfig{}).partition,
            TaskPartition::kRoundRobin);
}

TEST(OmpFront, RuntimeCallTrace) {
  OmpDirective d;
  d.schedule = OmpSchedule::kDynamic;
  const auto calls = lowered_runtime_calls(d);
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_NE(calls[0].find("fork_call"), std::string::npos);
  EXPECT_NE(calls[1].find("dispatch_init"), std::string::npos);
  EXPECT_EQ(calls.back(), "__kmpc_barrier");
}

TEST(OmpFront, DynamicBeatsStaticOnSkewedWork) {
  // RMAT degree skew: blocked (static) partitioning load-imbalances; the
  // round-robin (dynamic-ish) lowering balances it.
  const auto tasks = irregular_workload(12);
  OmpDirective omp;
  omp.num_threads = 8;
  omp.schedule = OmpSchedule::kStatic;
  const auto static_stats =
      simulate_sparta(tasks, lower_omp_to_sparta(omp, SpartaConfig{}));
  omp.schedule = OmpSchedule::kDynamic;
  const auto dynamic_stats =
      simulate_sparta(tasks, lower_omp_to_sparta(omp, SpartaConfig{}));
  EXPECT_LT(dynamic_stats.cycles, static_stats.cycles);
}

// ---------------------------------------------------------------------------
// SimPoint-style phase sampling.

TEST(PhaseSampling, DeterministicAndSimulatesASubset) {
  const auto tasks = irregular_workload(12);
  const SpartaConfig config;
  const PhaseSamplingConfig sampling;
  const auto a = simulate_sparta_sampled(tasks, config, sampling);
  const auto b = simulate_sparta_sampled(tasks, config, sampling);
  EXPECT_EQ(a.cycles_estimate, b.cycles_estimate);
  EXPECT_EQ(a.cycles_half_width, b.cycles_half_width);
  EXPECT_EQ(a.intervals_simulated, b.intervals_simulated);
  EXPECT_GT(a.intervals, a.intervals_simulated);
  EXPECT_GT(a.sample_factor(), 1.0);
  EXPECT_LE(a.phases_used, static_cast<std::size_t>(sampling.phases));
}

TEST(PhaseSampling, OracleInsideConfidenceInterval) {
  const auto tasks = irregular_workload(12);
  const SpartaConfig config;
  const PhaseSamplingConfig sampling;
  const auto sampled = simulate_sparta_sampled(tasks, config, sampling);
  const auto oracle =
      sparta_isolated_reference(tasks, config, sampling.interval_tasks);
  EXPECT_LE(std::fabs(sampled.cycles_estimate -
                      static_cast<double>(oracle.cycles)),
            sampled.cycles_half_width)
      << "estimate " << sampled.cycles_estimate << " +- "
      << sampled.cycles_half_width << " vs oracle " << oracle.cycles;
  // KPI reconstruction lands within a loose band of the oracle totals.
  EXPECT_NEAR(static_cast<double>(sampled.reconstructed.mem_requests),
              static_cast<double>(oracle.mem_requests),
              0.35 * static_cast<double>(oracle.mem_requests));
  EXPECT_NEAR(static_cast<double>(sampled.reconstructed.tasks_executed),
              static_cast<double>(tasks.size()),
              0.15 * static_cast<double>(tasks.size()));
}

TEST(PhaseSampling, FewIntervalsDegradeToExhaustive) {
  // A workload smaller than one interval: the single interval is its own
  // phase, sampled exactly; the estimate is the oracle with zero width.
  const auto tasks = irregular_workload(6);
  const SpartaConfig config;
  PhaseSamplingConfig sampling;
  sampling.interval_tasks = tasks.size() + 10;
  const auto sampled = simulate_sparta_sampled(tasks, config, sampling);
  const auto oracle =
      sparta_isolated_reference(tasks, config, sampling.interval_tasks);
  EXPECT_EQ(sampled.intervals, 1u);
  EXPECT_EQ(sampled.intervals_simulated, 1u);
  EXPECT_DOUBLE_EQ(sampled.cycles_estimate,
                   static_cast<double>(oracle.cycles));
  EXPECT_DOUBLE_EQ(sampled.cycles_half_width, 0.0);
}

TEST(PhaseSampling, EmptyWorkload) {
  const auto sampled = simulate_sparta_sampled({}, SpartaConfig{},
                                               PhaseSamplingConfig{});
  EXPECT_EQ(sampled.intervals, 0u);
  EXPECT_EQ(sampled.intervals_simulated, 0u);
  EXPECT_DOUBLE_EQ(sampled.cycles_estimate, 0.0);
}

TEST(PhaseSampling, RejectsDegenerateConfig) {
  const auto tasks = irregular_workload(6);
  PhaseSamplingConfig sampling;
  sampling.interval_tasks = 0;
  EXPECT_THROW(simulate_sparta_sampled(tasks, SpartaConfig{}, sampling),
               core::Error);
  sampling = {};
  sampling.samples_per_phase = 1;
  EXPECT_THROW(simulate_sparta_sampled(tasks, SpartaConfig{}, sampling),
               core::Error);
  sampling = {};
  sampling.confidence = 1.0;
  EXPECT_THROW(simulate_sparta_sampled(tasks, SpartaConfig{}, sampling),
               core::Error);
  EXPECT_THROW(sparta_isolated_reference(tasks, SpartaConfig{}, 0),
               core::Error);
}

TEST(PhaseSampling, MoreSamplesTightenTheInterval) {
  const auto tasks = irregular_workload(12);
  const SpartaConfig config;
  PhaseSamplingConfig coarse;
  coarse.samples_per_phase = 2;
  PhaseSamplingConfig fine;
  fine.samples_per_phase = 8;
  const auto a = simulate_sparta_sampled(tasks, config, coarse);
  const auto b = simulate_sparta_sampled(tasks, config, fine);
  EXPECT_GT(b.intervals_simulated, a.intervals_simulated);
  EXPECT_LT(b.cycles_half_width, a.cycles_half_width);
}

}  // namespace
}  // namespace icsc::hls
