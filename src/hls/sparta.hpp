// SPARTA: cycle-approximate simulator of the parallel multi-threaded
// accelerator architecture (Sec. III, [5]).
//
// "Accelerators generated with SPARTA are based on a custom architecture
// that can exploit spatial parallelism and hide the latency of external
// memory accesses through context switching. Moreover, SPARTA includes a
// custom Network-on-Chip connecting multiple external memory channels to
// each accelerator, memory-side caching, and on-chip private memories for
// each accelerator."
//
// The model: `lanes` accelerator lanes (spatial parallelism), each holding
// `contexts_per_lane` hardware contexts (latency hiding). Tasks -- e.g. one
// SpMV row or one BFS vertex expansion -- are partitioned over lanes; a
// context executes its task's steps (compute cycles and irregular memory
// accesses); on a memory-side cache miss the context blocks for the DRAM
// latency and the lane switches to another ready context. Requests cross a
// NoC to `mem_channels` channels with a per-request issue gap (bandwidth).
// Sequential row data is assumed streamed/prefetched into the lane-private
// scratchpad; only the irregular accesses (x[col[e]], level[w]) traverse
// the memory system, which is what makes graph kernels hard.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/sampling.hpp"

namespace icsc::hls {

/// One step of a task: spend `compute_cycles`, then optionally touch
/// memory at `address` (negative = no access).
struct TaskStep {
  int compute_cycles = 1;
  std::int64_t address = -1;
};

/// A task is the unit of work a context executes to completion.
struct SpartaTask {
  std::vector<TaskStep> steps;
};

enum class TaskPartition { kRoundRobin, kBlocked };

struct SpartaConfig {
  int lanes = 4;
  int contexts_per_lane = 4;
  int mem_channels = 2;
  int mem_latency_cycles = 120;   // DRAM round trip
  int channel_gap_cycles = 4;     // per-request occupancy (bandwidth)
  int cache_lines = 4096;         // memory-side cache capacity (lines)
  int cache_line_bytes = 64;
  /// Cache associativity: 1 = direct mapped, N = N-way LRU. The memory-
  /// side cache absorbs the hub-vertex reuse of irregular kernels; higher
  /// associativity removes conflict misses on skewed access streams.
  int cache_ways = 1;
  int cache_hit_latency = 10;     // through the NoC to the cache
  int context_switch_cycles = 1;
  TaskPartition partition = TaskPartition::kRoundRobin;
  /// Lane-private scratchpad ("on-chip private memories for each
  /// accelerator"): the first `private_scratchpad_bytes` of the shared
  /// data array are pinned per lane and hit in `scratchpad_latency`
  /// cycles without touching the NoC or cache. 0 disables.
  std::int64_t private_scratchpad_bytes = 0;
  int scratchpad_latency = 1;

  /// Throws core::Error unless cache_line_bytes is >= 1 and every latency
  /// and gap (memory, channel, cache hit, context switch, scratchpad) is
  /// >= 0. Lane, context, channel, line and way counts below 1 are clamped
  /// to 1 by the simulator instead.
  void validate() const;
};

struct SpartaStats {
  std::uint64_t cycles = 0;
  double lane_utilization = 0.0;  // busy (compute+issue) / total
  std::uint64_t mem_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t scratchpad_hits = 0;
  std::uint64_t tasks_executed = 0;

  double hit_rate() const {
    return mem_requests > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(mem_requests)
               : 0.0;
  }
};

/// Runs the workload to completion; deterministic. Throws core::Error when
/// config.validate() does.
SpartaStats simulate_sparta(const std::vector<SpartaTask>& tasks,
                            const SpartaConfig& config);

/// Workload generators from graph kernels. Each edge contributes one
/// irregular access (the gather) plus one compute cycle.
/// SpMV: task per row, accesses x[col[e]].
std::vector<SpartaTask> make_spmv_tasks(const core::CsrGraph& graph);
/// BFS frontier expansion: task per vertex, accesses level[col[e]].
std::vector<SpartaTask> make_bfs_tasks(const core::CsrGraph& graph);
/// PageRank push iteration: accesses rank[col[e]] with 2 compute cycles.
std::vector<SpartaTask> make_pagerank_tasks(const core::CsrGraph& graph);

/// The serial-HLS reference point: one lane, one context (what a plain
/// non-multithreaded Bambu/Vitis accelerator would execute).
SpartaConfig serial_baseline_config(const SpartaConfig& like);

// ---------------------------------------------------------------------------
// SimPoint-style phase sampling (Sec. III + the workload-sampling
// methodology of SNIPPETS.md Snippet 3): instead of simulating every task,
// slice the task stream into fixed-size intervals, cluster the intervals'
// static lane signatures (steps, accesses, footprint, reuse) into phases
// with a deterministic k-means, simulate a few sampled intervals per phase,
// and reconstruct whole-run KPIs as a stratified estimate with a
// Welch-Satterthwaite confidence interval (phases are the strata, interval
// counts the weights, finite-population corrected).
//
// The estimator's population is the sum of *per-interval isolated*
// simulations -- each sampled interval starts from a cold cache, exactly
// like the population members it stands for -- so the reported CI is a
// genuine coverage statement about `sparta_isolated_reference`. The gap
// between that population total and the monolithic simulate_sparta run
// (warm-cache coupling between intervals) is reported separately by the
// benches as reconstruction bias; it shrinks as interval_tasks grows.

struct PhaseSamplingConfig {
  /// Consecutive tasks per interval (the SimPoint interval size).
  std::size_t interval_tasks = 32;
  /// Target number of phases (k-means clusters); clamped to the interval
  /// count.
  int phases = 8;
  /// Simulated intervals per phase. Phases with at least two members need
  /// at least two samples for a finite CI; a one-interval phase is
  /// simulated exactly.
  int samples_per_phase = 3;
  int kmeans_iters = 20;
  double confidence = 0.95;
  /// Seeds the deterministic center init and per-phase sample picks.
  std::uint64_t seed = 0x5BA2'7AULL;

  /// Throws core::Error unless interval_tasks, phases and kmeans_iters are
  /// >= 1, samples_per_phase is >= 2 and confidence is in (0, 1).
  void validate() const;
};

struct PhaseSampleStats {
  /// Estimated total cycles over all intervals (isolated-interval
  /// population), with its CI half-width.
  double cycles_estimate = 0.0;
  double cycles_half_width = 0.0;
  double confidence = 0.0;
  std::size_t intervals = 0;
  std::size_t intervals_simulated = 0;
  std::size_t phases_used = 0;
  /// Whole-run KPI reconstruction: per-phase sampled means scaled by the
  /// phase's interval count (cycles rounded from cycles_estimate).
  SpartaStats reconstructed;

  /// Simulation-work reduction: intervals / intervals_simulated.
  double sample_factor() const {
    return intervals_simulated > 0
               ? static_cast<double>(intervals) /
                     static_cast<double>(intervals_simulated)
               : 1.0;
  }
};

/// Phase-sampled SPARTA run. Deterministic: clustering, sample picks, and
/// the resulting estimate are pure functions of (tasks, config, sampling
/// config). Throws core::Error when config.validate() or
/// sampling.validate() does.
PhaseSampleStats simulate_sparta_sampled(const std::vector<SpartaTask>& tasks,
                                         const SpartaConfig& config,
                                         const PhaseSamplingConfig& sampling);

/// The exhaustive oracle of the phase-sampling estimator: every interval
/// simulated in isolation, totals summed. The validation mode asserts this
/// lands inside simulate_sparta_sampled's CI. Throws core::Error when
/// interval_tasks is 0 or config.validate() does.
SpartaStats sparta_isolated_reference(const std::vector<SpartaTask>& tasks,
                                      const SpartaConfig& config,
                                      std::size_t interval_tasks);

}  // namespace icsc::hls
