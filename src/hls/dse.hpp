// Design-space exploration engine (Sec. III).
//
// "The proposed toolchain will allow designers to explore automatically the
// wide space of the architectural parameters, adopt optimization strategies
// at a high level of abstraction through performance and resource
// estimations". A design point = (unroll factor, resource budget); its
// objectives are total latency for a given iteration count and area. Three
// strategies -- exhaustive, random sampling, and hill climbing -- are
// compared by Pareto hypervolume in the ablation bench. Evaluations run on
// the shared pool and fold back in a fixed order, so a result is
// bit-identical for a given config and seed at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pareto.hpp"
#include "hls/estimate.hpp"

namespace icsc::hls {

struct DesignPoint {
  int unroll = 1;
  ResourceBudget budget;
  CostReport cost;          // filled by evaluation
  double total_latency_us = 0.0;  // for the configured trip count
  double area_score = 0.0;        // LUT-equivalent area
};

struct DseSpace {
  std::vector<int> unroll_factors{1, 2, 4, 8};
  std::vector<int> alu_counts{1, 2, 4, 8};
  std::vector<int> mul_counts{1, 2, 4};
  std::vector<int> mem_port_counts{1, 2, 4};
};

/// One (unroll, budget) coordinate of a sweep.
struct GridPoint {
  int unroll = 1;
  ResourceBudget budget;
};

/// Canonical enumeration of the whole space in row-major
/// (unroll, alu, mul, port) order -- the one ordering every exhaustive
/// sweep (and every old-vs-new bench baseline) must share so fronts and
/// indices stay comparable.
std::vector<GridPoint> dse_grid(const DseSpace& space);

struct DseConfig {
  FpgaDevice device = device_kintex7_410t();
  /// Loop trip count the kernel body executes (total work = iterations).
  int iterations = 1024;
  /// Evaluate designs with the loop pipelined (modulo scheduling): the
  /// "pipeline" directive every HLS DSE sweeps alongside unrolling.
  bool pipelined = false;
  DseSpace space;

  /// Share scheduling work across the run through a per-call cache: the
  /// unrolled kernel is computed once per unroll factor, and the
  /// schedule/binding/cost pipeline once per (unroll, effective budget).
  /// The effective budget clamps each resource class to the unrolled
  /// kernel's total occupancy in that class -- beyond it the constraint
  /// can never bind (the op being placed is never counted against the
  /// budget, so at least one unit is always free), which makes every
  /// clamped evaluation provably bit-identical to the direct one. The
  /// cache is shared safely across pool workers (once-initialised slots)
  /// and `false` restores the uncached seed path for A/B benchmarking.
  bool memoize = true;

  /// Throws core::Error unless `iterations` and every entry of the four
  /// space axes (unroll factors and ALU, multiplier and memory-port
  /// counts) are >= 1 and no axis is empty. The three strategies call it
  /// before any evaluation.
  void validate() const;
};

/// Evaluates one (kernel, unroll, budget) configuration: schedules the
/// unrolled body under the budget and rolls up iteration latency and area.
/// Always uncached (the strategies go through the per-run memo instead).
/// Throws core::Error unless `unroll`, `config.iterations` and every class
/// count of `budget` are >= 1.
/// A degenerate estimate whose Fmax is zero, negative, or non-finite is
/// marked infeasible explicitly (`cost.fits = false`, infinite latency)
/// instead of silently dividing by it.
DesignPoint evaluate_design(const Kernel& body, int unroll,
                            const ResourceBudget& budget,
                            const DseConfig& config);

/// Result of one DSE run. Accounting semantics (uniform across all three
/// strategies): `evaluations` counts every attempted design-point
/// evaluation, whether or not the design fits the device; `feasible`
/// counts the subset that fit AND carry finite latency/area estimates, and
/// equals `evaluated.size()`. Points that do not fit -- or whose estimates
/// are NaN/Inf (degenerate device parameters, overflowed cycle counts) --
/// are counted in `evaluations` but never kept, so they cannot poison the
/// Pareto front. `evaluated` is ordered canonically --
/// exhaustive: row-major (unroll, alu, mul, port) grid order; random: trial
/// order; hill climb: evaluation order (start point, then neighbours per
/// pass) -- and that ordering is identical whether the evaluations ran
/// serially or on the thread pool, so `front` indices and all counters are
/// bit-reproducible for a given config/seed.
struct DseResult {
  std::vector<DesignPoint> evaluated;
  std::vector<core::ParetoPoint> front;  // objectives {latency_us, area}
  std::size_t evaluations = 0;  // all attempts, fitting or not
  std::size_t feasible = 0;     // attempts that fit (== evaluated.size())
  /// Always true: every strategy runs to the end of its space, budget or
  /// restarts. Kept for callers that still check it.
  bool completed = true;
  /// Memoization accounting: `cache_misses` counts evaluations that
  /// actually ran the unroll/schedule/bind/estimate pipeline, `cache_hits`
  /// the ones served from an already-computed (unroll, effective budget)
  /// slot. Hits + misses equals `evaluations` when `DseConfig::memoize` is
  /// on; both stay zero when it is off. Also exported as the
  /// `dse/cache_hits` / `dse/cache_misses` trace counters.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Exhaustive sweep of the whole space. Design points are evaluated in
/// parallel on the shared pool (core/parallel.hpp) and folded back in grid
/// order.
DseResult dse_exhaustive(const Kernel& body, const DseConfig& config);

/// Uniform random sampling with an evaluation budget. All trial
/// coordinates are drawn from the seeded RNG up front, so results are
/// bit-identical to a serial run regardless of thread count.
DseResult dse_random(const Kernel& body, const DseConfig& config,
                     std::size_t budget, std::uint64_t seed);

/// Steepest-descent hill climbing on the weighted objective
/// latency * area, restarted `restarts` times from random points.
DseResult dse_hill_climb(const Kernel& body, const DseConfig& config,
                         int restarts, std::uint64_t seed);

/// Pareto quality of a result against a reference box (hypervolume).
double dse_hypervolume(const DseResult& result, double ref_latency_us,
                       double ref_area);

}  // namespace icsc::hls
