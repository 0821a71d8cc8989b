#include "hls/dse.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"
#include "hls/pipelining.hpp"

namespace icsc::hls {

namespace {

/// A design point with a NaN/Inf latency or area estimate is infeasible:
/// admitting it would poison the Pareto front and the area-delay scores.
bool point_finite(const DesignPoint& point) {
  return std::isfinite(point.total_latency_us) &&
         std::isfinite(point.area_score);
}

double area_of(const CostReport& cost) {
  // LUT-equivalent area: DSPs and BRAM folded in at typical exchange rates.
  return static_cast<double>(cost.luts) + 100.0 * cost.dsps +
         50.0 * cost.bram_kb + 0.25 * cost.ffs;
}

std::vector<core::ParetoPoint> to_pareto(const std::vector<DesignPoint>& pts) {
  std::vector<core::ParetoPoint> out;
  out.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out.push_back({i, {pts[i].total_latency_us, pts[i].area_score}});
  }
  return core::pareto_front(out);
}

/// One candidate configuration drawn from the space.
using Candidate = GridPoint;

// ---------------------------------------------------------------------------
// Shared evaluation pipeline. The budget-dependent part of a design-point
// evaluation -- list scheduling, binding, estimation, latency roll-up -- is
// a pure function of (unrolled kernel, unroll factor, budget, config), so
// the strategies memoize it; evaluate_design() stays the uncached
// reference path.

/// The (unroll, budget)-keyed slice of a DesignPoint: everything except
/// the candidate's own coordinates.
struct EvalCore {
  CostReport cost;
  double total_latency_us = 0.0;
  double area_score = 0.0;
};

EvalCore evaluate_core(const Kernel& unrolled, const ListSchedulePlan& plan,
                       int unroll, const ResourceBudget& budget,
                       const DseConfig& config) {
  ICSC_TRACE_COUNT("dse/schedule_calls", 1);
  EvalCore out;
  const Schedule schedule = schedule_list(unrolled, plan, budget);
  const Binding binding = bind_kernel(unrolled, schedule);
  out.cost = estimate_kernel(unrolled, schedule, binding, config.device);
  out.area_score = area_of(out.cost);
  if (!(out.cost.fmax_mhz > 0.0) || !std::isfinite(out.cost.fmax_mhz)) {
    // Degenerate device parameters: dividing by this Fmax would yield a
    // silent Inf/NaN latency. Mark the point infeasible explicitly.
    out.cost.fits = false;
    out.total_latency_us = std::numeric_limits<double>::infinity();
    return out;
  }
  const int bodies = (config.iterations + unroll - 1) / unroll;
  if (config.pipelined) {
    // Loop pipelining: iterations enter every II cycles instead of
    // back-to-back sequential bodies.
    const auto pipelined = schedule_pipelined(unrolled, budget);
    out.total_latency_us =
        static_cast<double>(pipelined.total_cycles(
            static_cast<std::uint64_t>(bodies))) /
        out.cost.fmax_mhz;
  } else {
    out.total_latency_us =
        static_cast<double>(bodies) * static_cast<double>(out.cost.cycles) /
        out.cost.fmax_mhz;  // us = cycles / MHz
  }
  return out;
}

DesignPoint assemble_point(const Candidate& candidate, const EvalCore& core) {
  DesignPoint point;
  point.unroll = candidate.unroll;
  point.budget = candidate.budget;
  point.cost = core.cost;
  point.total_latency_us = core.total_latency_us;
  point.area_score = core.area_score;
  return point;
}

/// Per-run evaluation memo (DseConfig::memoize). Two levels, mirroring the
/// pipeline's data dependences:
///   unroll factor              -> unrolled Kernel (+ per-class occupancy
///                                 and its list-scheduling plan)
///   (unroll, effective budget) -> Schedule/Binding/CostReport/latency
/// The effective budget clamps each class to the unrolled kernel's total
/// occupancy cycles in that class. Clamping is an identity on the result:
/// neither the list scheduler nor the modulo scheduler counts the op being
/// placed against the budget, so per-cycle usage never exceeds
/// occupancy - 1 and a budget at (or beyond) the occupancy total can never
/// bind; min_initiation_interval likewise yields ceil(uses/units) = 1 for
/// any units >= uses. Slots are lazily initialised behind std::once_flag
/// so pool workers share one computation race-free; dse_exhaustive
/// prewarms the unroll axis eagerly before fanning out.
class EvalCache {
 public:
  EvalCache(const Kernel& body, const DseConfig& config)
      : body_(body), config_(config) {
    const auto& factors = config.space.unroll_factors;
    unroll_slots_ = std::vector<UnrollSlot>(factors.size());
    for (std::size_t i = 0; i < factors.size(); ++i) {
      // First occurrence wins on duplicate factors; both map to the same
      // unrolled kernel either way.
      unroll_index_.emplace(factors[i], i);
    }
  }

  /// Forces every unroll slot up front (one parallel pass), so the
  /// exhaustive sweep's workers never serialize on the unroll axis.
  void prewarm_unrolls() {
    core::parallel_map(unroll_slots_.size(), 1, [this](std::size_t i) {
      force_unroll(i);
      return 0;
    });
  }

  DesignPoint evaluate(const Candidate& candidate) {
    ICSC_TRACE_SPAN("dse/evaluate");
    const auto it = unroll_index_.find(candidate.unroll);
    if (it == unroll_index_.end()) {
      // Not a coordinate of the space (possible only for direct callers):
      // fall through to the uncached path.
      return evaluate_design(body_, candidate.unroll, candidate.budget,
                             config_);
    }
    UnrollSlot& slot = force_unroll(it->second);
    const ResourceBudget effective = clamp_budget(candidate.budget, slot);
    DesignSlot& design = design_slot(it->second, effective);
    bool computed = false;
    std::call_once(design.once, [&] {
      design.core = evaluate_core(slot.unrolled(body_, candidate.unroll),
                                  slot.plan, candidate.unroll, effective,
                                  config_);
      computed = true;
    });
    if (computed) {
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return assemble_point(candidate, design.core);
  }

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct UnrollSlot {
    std::once_flag once;
    Kernel kernel{""};
    bool use_body = false;  // unroll <= 1: the body itself, never copied
    /// Total occupancy cycles per class {alu, mul, div, mem_port}: the
    /// clamp ceiling beyond which a budget cannot influence the schedule.
    std::array<int, 4> occupancy{1, 1, 1, 1};
    /// Mobility and consumer lists, shared by every budget of this unroll.
    ListSchedulePlan plan;

    const Kernel& unrolled(const Kernel& body, int) const {
      return use_body ? body : kernel;
    }
  };

  struct DesignSlot {
    std::once_flag once;
    EvalCore core;
  };

  /// (unroll slot, clamped alus/muls/divs/ports).
  using Key = std::array<int, 5>;

  UnrollSlot& force_unroll(std::size_t index) {
    UnrollSlot& slot = unroll_slots_[index];
    std::call_once(slot.once, [&] {
      const int factor = config_.space.unroll_factors[index];
      if (factor > 1) {
        ICSC_TRACE_COUNT("dse/unroll_calls", 1);
        slot.kernel = unroll_kernel(body_, factor);
      } else {
        slot.use_body = true;
      }
      const Kernel& unrolled = slot.unrolled(body_, factor);
      slot.occupancy = occupancy_totals(unrolled);
      slot.plan = ListSchedulePlan(unrolled);
    });
    return slot;
  }

  static std::array<int, 4> occupancy_totals(const Kernel& kernel) {
    std::array<int, 4> totals{0, 0, 0, 0};
    for (const Op& op : kernel.ops()) {
      const int cycles =
          op.kind == OpKind::kDiv ? op_latency(OpKind::kDiv) : 1;
      switch (op_fu_class(op.kind)) {
        case FuClass::kAlu: totals[0] += cycles; break;
        case FuClass::kMul: totals[1] += cycles; break;
        case FuClass::kDiv: totals[2] += cycles; break;
        case FuClass::kMemPort: totals[3] += cycles; break;
        case FuClass::kNone: break;
      }
    }
    for (int& t : totals) t = std::max(1, t);
    return totals;
  }

  static ResourceBudget clamp_budget(const ResourceBudget& budget,
                                     const UnrollSlot& slot) {
    ResourceBudget eff = budget;
    eff.alus = std::clamp(budget.alus, 1, slot.occupancy[0]);
    eff.muls = std::clamp(budget.muls, 1, slot.occupancy[1]);
    eff.divs = std::clamp(budget.divs, 1, slot.occupancy[2]);
    eff.mem_ports = std::clamp(budget.mem_ports, 1, slot.occupancy[3]);
    return eff;
  }

  DesignSlot& design_slot(std::size_t unroll_index,
                          const ResourceBudget& effective) {
    const Key key{static_cast<int>(unroll_index), effective.alus,
                  effective.muls, effective.divs, effective.mem_ports};
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = designs_[key];
    if (!slot) slot = std::make_unique<DesignSlot>();
    return *slot;
  }

  const Kernel& body_;
  const DseConfig& config_;
  std::map<int, std::size_t> unroll_index_;
  std::vector<UnrollSlot> unroll_slots_;
  std::mutex mutex_;
  std::map<Key, std::unique_ptr<DesignSlot>> designs_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

/// Books a finished run's cache accounting into the result and the
/// dse/cache_* trace counters.
void fold_cache_stats(DseResult& result, const EvalCache* cache) {
  if (cache == nullptr) return;
  result.cache_hits = cache->hits();
  result.cache_misses = cache->misses();
  ICSC_TRACE_COUNT("dse/cache_hits", result.cache_hits);
  ICSC_TRACE_COUNT("dse/cache_misses", result.cache_misses);
}

/// Driver shared by the candidate-list strategies (exhaustive, random):
/// evaluates every candidate in one pass over the pool and folds the
/// points back in candidate order.
DseResult run_candidates(const Kernel& body, const DseConfig& config,
                         const std::vector<Candidate>& candidates,
                         bool prewarm = false) {
  ICSC_TRACE_SPAN("dse/run_candidates");
  std::unique_ptr<EvalCache> cache;
  if (config.memoize) cache = std::make_unique<EvalCache>(body, config);
  // An exhaustive sweep visits every unroll factor, so computing the whole
  // axis up front (in parallel) beats first-touch laziness.
  if (cache && prewarm) cache->prewarm_unrolls();
  auto points = core::parallel_map(candidates.size(), 1, [&](std::size_t i) {
    return cache ? cache->evaluate(candidates[i])
                 : evaluate_design(body, candidates[i].unroll,
                                   candidates[i].budget, config);
  });
  DseResult result;
  result.evaluations = points.size();
  ICSC_TRACE_COUNT("dse.evaluations", points.size());
  for (auto& point : points) {
    if (!point.cost.fits || !point_finite(point)) continue;
    ++result.feasible;
    result.evaluated.push_back(std::move(point));
  }
  fold_cache_stats(result, cache.get());
  result.front = to_pareto(result.evaluated);
  return result;
}

}  // namespace

void DseConfig::validate() const {
  const std::string where = "hls::DseConfig";
  core::require_at_least(where, "iterations", iterations, 1);
  for (const auto& [field, axis] :
       {std::pair{"space.unroll_factors.size()", &space.unroll_factors},
        std::pair{"space.alu_counts.size()", &space.alu_counts},
        std::pair{"space.mul_counts.size()", &space.mul_counts},
        std::pair{"space.mem_port_counts.size()", &space.mem_port_counts}}) {
    core::require_at_least(where, field, static_cast<double>(axis->size()), 1);
  }
  for (const auto& [field, axis] :
       {std::pair{"each space.unroll_factors entry", &space.unroll_factors},
        std::pair{"each space.alu_counts entry", &space.alu_counts},
        std::pair{"each space.mul_counts entry", &space.mul_counts},
        std::pair{"each space.mem_port_counts entry",
                  &space.mem_port_counts}}) {
    for (const int value : *axis) {
      core::require_at_least(where, field, value, 1);
    }
  }
}

std::vector<GridPoint> dse_grid(const DseSpace& space) {
  std::vector<GridPoint> grid;
  grid.reserve(space.unroll_factors.size() * space.alu_counts.size() *
               space.mul_counts.size() * space.mem_port_counts.size());
  for (const int unroll : space.unroll_factors) {
    for (const int alus : space.alu_counts) {
      for (const int muls : space.mul_counts) {
        for (const int ports : space.mem_port_counts) {
          GridPoint candidate;
          candidate.unroll = unroll;
          candidate.budget.alus = alus;
          candidate.budget.muls = muls;
          candidate.budget.mem_ports = ports;
          grid.push_back(candidate);
        }
      }
    }
  }
  return grid;
}

DesignPoint evaluate_design(const Kernel& body, int unroll,
                            const ResourceBudget& budget,
                            const DseConfig& config) {
  ICSC_TRACE_SPAN("dse/evaluate");
  const std::string where = "hls::evaluate_design";
  core::require_at_least(where, "unroll", unroll, 1);
  core::require_at_least(where, "config.iterations", config.iterations, 1);
  core::require_at_least(where, "budget.alus", budget.alus, 1);
  core::require_at_least(where, "budget.muls", budget.muls, 1);
  core::require_at_least(where, "budget.divs", budget.divs, 1);
  core::require_at_least(where, "budget.mem_ports", budget.mem_ports, 1);
  Candidate candidate;
  candidate.unroll = unroll;
  candidate.budget = budget;
  const Kernel unrolled = unroll > 1 ? unroll_kernel(body, unroll) : body;
  return assemble_point(candidate,
                        evaluate_core(unrolled, ListSchedulePlan(unrolled),
                                      unroll, budget, config));
}

DseResult dse_exhaustive(const Kernel& body, const DseConfig& config) {
  config.validate();
  // Materialise the full grid in canonical row-major order (dse_grid),
  // then fan the independent evaluations out.
  return run_candidates(body, config, dse_grid(config.space),
                        /*prewarm=*/true);
}

DseResult dse_random(const Kernel& body, const DseConfig& config,
                     std::size_t budget, std::uint64_t seed) {
  config.validate();
  core::Rng rng(seed);
  const auto& space = config.space;
  // Pre-draw every trial's coordinates serially, in the same per-trial
  // draw order (unroll, alus, muls, ports) as a serial loop would, so the
  // sampled sequence -- and therefore the result -- is bit-identical for a
  // given seed regardless of thread count.
  std::vector<Candidate> trials(budget);
  for (auto& trial : trials) {
    trial.unroll = space.unroll_factors[rng.below(space.unroll_factors.size())];
    trial.budget.alus = space.alu_counts[rng.below(space.alu_counts.size())];
    trial.budget.muls = space.mul_counts[rng.below(space.mul_counts.size())];
    trial.budget.mem_ports =
        space.mem_port_counts[rng.below(space.mem_port_counts.size())];
  }
  return run_candidates(body, config, trials);
}

DseResult dse_hill_climb(const Kernel& body, const DseConfig& config,
                         int restarts, std::uint64_t seed) {
  ICSC_TRACE_SPAN("dse/hill_climb");
  config.validate();
  core::Rng rng(seed);
  const auto& space = config.space;
  DseResult result;

  auto score = [](const DesignPoint& p) {
    const double s = p.total_latency_us * p.area_score;  // area-delay product
    // Non-finite estimates rank behind every real design.
    return std::isfinite(s) ? s : std::numeric_limits<double>::infinity();
  };
  // Coordinates: indices into the four space axes.
  struct Coord {
    std::size_t u, a, m, p;
  };
  auto to_candidate = [&](const Coord& c) {
    Candidate candidate;
    candidate.unroll = space.unroll_factors[c.u];
    candidate.budget.alus = space.alu_counts[c.a];
    candidate.budget.muls = space.mul_counts[c.m];
    candidate.budget.mem_ports = space.mem_port_counts[c.p];
    return candidate;
  };
  // Lazy memo: a climb revisits the same ridge of (unroll, budget) points
  // from several restarts, so hit rates are high even without prewarming.
  std::unique_ptr<EvalCache> cache;
  if (config.memoize) cache = std::make_unique<EvalCache>(body, config);
  auto evaluate = [&](const Candidate& candidate) {
    return cache ? cache->evaluate(candidate)
                 : evaluate_design(body, candidate.unroll, candidate.budget,
                                   config);
  };
  auto record = [&](const DesignPoint& point) {
    ++result.evaluations;
    if (!point.cost.fits || !point_finite(point)) return;
    ++result.feasible;
    result.evaluated.push_back(point);
  };

  for (int r = 0; r < restarts; ++r) {
    Coord current{rng.below(space.unroll_factors.size()),
                  rng.below(space.alu_counts.size()),
                  rng.below(space.mul_counts.size()),
                  rng.below(space.mem_port_counts.size())};
    DesignPoint best = evaluate(to_candidate(current));
    record(best);
    bool improved = true;
    while (improved) {
      improved = false;
      // Explore all +-1 neighbours along each axis.
      std::vector<Coord> neighbours;
      auto push = [&](Coord c) { neighbours.push_back(c); };
      if (current.u + 1 < space.unroll_factors.size()) push({current.u + 1, current.a, current.m, current.p});
      if (current.u > 0) push({current.u - 1, current.a, current.m, current.p});
      if (current.a + 1 < space.alu_counts.size()) push({current.u, current.a + 1, current.m, current.p});
      if (current.a > 0) push({current.u, current.a - 1, current.m, current.p});
      if (current.m + 1 < space.mul_counts.size()) push({current.u, current.a, current.m + 1, current.p});
      if (current.m > 0) push({current.u, current.a, current.m - 1, current.p});
      if (current.p + 1 < space.mem_port_counts.size()) push({current.u, current.a, current.m, current.p + 1});
      if (current.p > 0) push({current.u, current.a, current.m, current.p - 1});
      // The serial algorithm evaluates every neighbour unconditionally, so
      // the batch can run in parallel; selecting the winner in neighbour
      // order below reproduces the serial scan exactly.
      const auto points = core::parallel_map(
          neighbours.size(), 1,
          [&](std::size_t i) { return evaluate(to_candidate(neighbours[i])); });
      for (std::size_t i = 0; i < points.size(); ++i) {
        record(points[i]);
        if (points[i].cost.fits && point_finite(points[i]) &&
            score(points[i]) < score(best)) {
          best = points[i];
          current = neighbours[i];
          improved = true;
        }
      }
    }
  }
  ICSC_TRACE_COUNT("dse.evaluations", result.evaluations);
  fold_cache_stats(result, cache.get());
  result.front = to_pareto(result.evaluated);
  return result;
}

double dse_hypervolume(const DseResult& result, double ref_latency_us,
                       double ref_area) {
  return core::hypervolume_2d(result.front, ref_latency_us, ref_area);
}

}  // namespace icsc::hls
