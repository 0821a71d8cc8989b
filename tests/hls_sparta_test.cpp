#include "hls/sparta.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <string>

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

using NamedTasks = std::pair<std::string, std::vector<SpartaTask>>;

/// The workloads of the stats golden: SpMV, BFS and PageRank on one
/// seeded RMAT graph, and a task list with empty tasks, negative and zero
/// compute cycles, compute-only steps and scratchpad-range addresses.
std::vector<NamedTasks> golden_workloads() {
  const auto graph = core::make_rmat_graph(11, 8.0, 21);
  std::vector<SpartaTask> edge(300);
  core::Rng rng(0xED6E);
  for (std::size_t t = 0; t < edge.size(); ++t) {
    if (t % 7 == 3) continue;  // empty task
    const std::size_t steps = 1 + rng.below(12);
    for (std::size_t i = 0; i < steps; ++i) {
      TaskStep step;
      step.compute_cycles = static_cast<int>(rng.below(7)) - 2;
      step.address = rng.below(4) == 0
                         ? -1
                         : static_cast<std::int64_t>(rng.below(1 << 14)) * 4;
      edge[t].steps.push_back(step);
    }
  }
  return {{"spmv", make_spmv_tasks(graph)},
          {"bfs", make_bfs_tasks(graph)},
          {"pagerank", make_pagerank_tasks(graph)},
          {"edge", std::move(edge)}};
}

/// The default 4x4, the serial baseline, 8 lanes with a small 4-way cache
/// of 48-byte lines on 3 channels (so lines get evicted), and blocked
/// partitioning with a 4 KiB scratchpad and 8 contexts.
std::vector<std::pair<std::string, SpartaConfig>> golden_configs() {
  SpartaConfig wide;
  wide.lanes = 8;
  wide.cache_lines = 64;
  wide.cache_ways = 4;
  wide.cache_line_bytes = 48;
  wide.mem_channels = 3;
  SpartaConfig blocked;
  blocked.partition = TaskPartition::kBlocked;
  blocked.private_scratchpad_bytes = 4096;
  blocked.contexts_per_lane = 8;
  return {{"4x4", SpartaConfig{}},
          {"serial", serial_baseline_config(SpartaConfig{})},
          {"wide", wide},
          {"blocked", blocked}};
}

struct StatsGolden {
  std::uint64_t cycles;
  std::uint64_t utilization_bits;  // bit pattern of lane_utilization
  std::uint64_t mem_requests;
  std::uint64_t cache_hits;
  std::uint64_t scratchpad_hits;
  std::uint64_t tasks_executed;

  bool operator==(const StatsGolden&) const = default;
};

StatsGolden golden_of(const SpartaStats& s) {
  return {s.cycles, std::bit_cast<std::uint64_t>(s.lane_utilization),
          s.mem_requests, s.cache_hits, s.scratchpad_hits, s.tasks_executed};
}

void PrintTo(const StatsGolden& g, std::ostream* os) {
  *os << "{" << g.cycles << "ULL, 0x" << std::hex << g.utilization_bits
      << std::dec << "ULL, " << g.mem_requests << ", " << g.cache_hits << ", "
      << g.scratchpad_hits << ", " << g.tasks_executed << "}";
}

TEST(Sparta, StatsGolden) {
  // Every SpartaStats field of four workloads under four configs, pinned
  // (lane_utilization by its bit pattern). Lanes advance in (local time,
  // lane id) order and share one cache and one set of channels, so any
  // change to the event order moves these pins.
  const StatsGolden goldens[4][4] = {
      // spmv on 4x4, serial, wide, blocked
      {{24859, 0x3fd517290ef68e82ULL, 16384, 16256, 0, 1290},
       {210688, 0x3fc3e85c12a9d651ULL, 16384, 16256, 0, 1290},
       {43149, 0x3fb84d20ca92ef59ULL, 16384, 12582, 0, 1290},
       {22798, 0x3fd6ff42461d3d8eULL, 16384, 3843, 12477, 1290}},
      // bfs on 4x4, serial, wide, blocked
      {{29162, 0x3fdaf7bb0925b1f0ULL, 16384, 16256, 0, 1290},
       {227072, 0x3fcbb4f5e6065978ULL, 16384, 16256, 0, 1290},
       {41811, 0x3fc2cf28936347f3ULL, 16384, 12649, 0, 1290},
       {28392, 0x3fdbb2f643156c6aULL, 16384, 3843, 12477, 1290}},
      // pagerank on 4x4, serial, wide, blocked
      {{72987, 0x3fc75882d7c23d8aULL, 16384, 16256, 0, 2048},
       {231168, 0x3fcd7be3a66a075fULL, 16384, 16256, 0, 2048},
       {148655, 0x3fa6ecb975105207ULL, 16384, 12555, 0, 2048},
       {39673, 0x3fd579899e29d3a5ULL, 16384, 3843, 12477, 2048}},
      // edge on 4x4, serial, wide, blocked
      {{6724, 0x3fc1b2f0ec5ac3d8ULL, 1214, 511, 0, 300},
       {93189, 0x3fa46ed717c54cc3ULL, 1214, 511, 0, 300},
       {6880, 0x3fb14c346404c346ULL, 1214, 62, 0, 300},
       {3673, 0x3fd0334c2e0023b0ULL, 1214, 490, 57, 300}},
  };
  const auto workloads = golden_workloads();
  const auto configs = golden_configs();
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      EXPECT_EQ(golden_of(simulate_sparta(workloads[w].second,
                                          configs[c].second)),
                goldens[w][c])
          << workloads[w].first << " on " << configs[c].first;
    }
  }
}

TEST(Sparta, DegenerateTaskListsGolden) {
  // No tasks at all, and the edge workload with every count clamped to 1.
  EXPECT_EQ(golden_of(simulate_sparta({}, SpartaConfig{})),
            (StatsGolden{1, 0, 0, 0, 0, 0}));
  SpartaConfig zero_counts;
  zero_counts.lanes = 0;
  zero_counts.contexts_per_lane = 0;
  zero_counts.mem_channels = 0;
  zero_counts.cache_lines = 0;
  zero_counts.cache_ways = 0;
  zero_counts.partition = TaskPartition::kBlocked;
  EXPECT_EQ(golden_of(simulate_sparta(golden_workloads()[3].second,
                                      zero_counts)),
            (StatsGolden{149399, 0x3f997d91c1383823ULL, 1214, 0, 0, 300}));
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

TEST(PhaseSampling, EstimateBitsGolden) {
  // The phase-sampled estimate and its half-width, bit for bit, with the
  // isolated-interval oracle each stands for, for the three graph
  // workloads of Sparta.StatsGolden under the default config.
  struct Golden {
    std::uint64_t estimate_bits;
    std::uint64_t half_width_bits;
    std::size_t intervals_simulated;
    StatsGolden oracle;
  };
  const Golden goldens[] = {
      {0x40f5b72aaaaaaaaaULL, 0x40ce4f609602c961ULL, 18,
       {88686, 0x3fb7a59d7996c146ULL, 16384, 13749, 0, 1290}},
      {0x40f6d5f555555555ULL, 0x40cf1a7b0441cc4bULL, 18,
       {93240, 0x3fc0de75b0010de7ULL, 16384, 13749, 0, 1290}},
      {0x4100b02555555556ULL, 0x40c39ac94a0ecda3ULL, 20,
       {134722, 0x3fb94bab8e00ad2dULL, 16384, 13436, 0, 2048}},
  };
  const auto workloads = golden_workloads();
  const SpartaConfig config;
  const PhaseSamplingConfig sampling;
  for (std::size_t w = 0; w < 3; ++w) {
    const auto& tasks = workloads[w].second;
    const auto sampled = simulate_sparta_sampled(tasks, config, sampling);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled.cycles_estimate),
              goldens[w].estimate_bits)
        << workloads[w].first << ": got 0x" << std::hex
        << std::bit_cast<std::uint64_t>(sampled.cycles_estimate);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled.cycles_half_width),
              goldens[w].half_width_bits)
        << workloads[w].first << ": got 0x" << std::hex
        << std::bit_cast<std::uint64_t>(sampled.cycles_half_width);
    EXPECT_EQ(sampled.intervals_simulated, goldens[w].intervals_simulated)
        << workloads[w].first;
    EXPECT_EQ(golden_of(sparta_isolated_reference(tasks, config,
                                                  sampling.interval_tasks)),
              goldens[w].oracle)
        << workloads[w].first;
  }
}

TEST(PhaseSamplingConfig, ValidateRejectsEachOutOfRangeField) {
  EXPECT_NO_THROW(PhaseSamplingConfig{}.validate());
  const auto rejects = [](auto edit) {
    PhaseSamplingConfig sampling;
    edit(sampling);
    EXPECT_THROW(sampling.validate(), core::Error);
  };
  rejects([](PhaseSamplingConfig& s) { s.interval_tasks = 0; });
  rejects([](PhaseSamplingConfig& s) { s.phases = 0; });
  rejects([](PhaseSamplingConfig& s) { s.samples_per_phase = 1; });
  rejects([](PhaseSamplingConfig& s) { s.kmeans_iters = 0; });
  for (const double bad : {0.0, 1.0, -0.5, 1.5, std::nan("")}) {
    rejects([bad](PhaseSamplingConfig& s) { s.confidence = bad; });
  }
  PhaseSamplingConfig edge;
  edge.interval_tasks = 1;
  edge.phases = 1;
  edge.samples_per_phase = 2;
  edge.kmeans_iters = 1;
  edge.confidence = 0.5;
  EXPECT_NO_THROW(edge.validate());
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
