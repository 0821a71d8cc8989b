#include "hls/sparta.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace icsc::hls {

namespace {

/// x / d and x % d for a divisor fixed for a whole run: a shift and a mask
/// when d is a power of two, as the default line size, set count and
/// channel count are.
class Divisor {
public:
  explicit Divisor(std::uint64_t d)
      : d_(d), shift_(std::countr_zero(d)), pow2_(std::has_single_bit(d)) {}

  std::uint64_t quotient(std::uint64_t x) const {
    return pow2_ ? x >> shift_ : x / d_;
  }
  std::uint64_t remainder(std::uint64_t x) const {
    return pow2_ ? x & (d_ - 1) : x % d_;
  }

private:
  std::uint64_t d_;
  int shift_;
  bool pow2_;
};

/// Set-associative LRU memory-side cache over line addresses (1 way =
/// direct mapped).
class SetAssociativeCache {
public:
  SetAssociativeCache(int lines, int ways)
      : ways_(std::max(1, ways)),
        sets_(std::max(1, std::max(1, lines) / std::max(1, ways))),
        set_of_(static_cast<std::uint64_t>(sets_)),
        tags_(static_cast<std::size_t>(sets_) * ways_, -1),
        age_(static_cast<std::size_t>(sets_) * ways_, 0) {}

  /// Touches line index `line` (>= 0); true on a hit.
  bool access(std::int64_t line) {
    const std::size_t set = set_of_.remainder(static_cast<std::uint64_t>(line));
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    ++clock_;
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line) {
        age_[base + w] = clock_;
        return true;
      }
    }
    // Miss: evict the LRU way of the set.
    std::size_t victim = base;
    for (int w = 1; w < ways_; ++w) {
      if (age_[base + w] < age_[victim]) victim = base + w;
    }
    tags_[victim] = line;
    age_[victim] = clock_;
    return false;
  }

private:
  int ways_;
  int sets_;
  Divisor set_of_;
  std::vector<std::int64_t> tags_;
  std::vector<std::uint64_t> age_;
  std::uint64_t clock_ = 0;
};

/// ready_at of a context whose queue is done: never ready, never earliest.
constexpr std::uint64_t kRetired = std::numeric_limits<std::uint64_t>::max();

/// A hardware context walks its queue -- tasks `task`, `task + stride`, ...
/// below `task_end` -- in place, `step` running over the current task.
struct Context {
  const TaskStep* step = nullptr;
  const TaskStep* step_end = nullptr;
  std::size_t task = 0;
  std::size_t stride = 1;
  std::size_t task_end = 0;
  std::uint64_t ready_at = 0;  // cycle the context can run again

  void load(const SpartaTask* tasks) {
    step = tasks[task].steps.data();
    step_end = step + tasks[task].steps.size();
  }
};

struct Lane {
  std::uint64_t now = 0;
  std::uint64_t busy_cycles = 0;
  int live_contexts = 0;
};

/// simulate_sparta over tasks [0, count) of `tasks`, for a config the
/// caller has validated.
SpartaStats run_sparta(const SpartaTask* tasks, std::size_t count,
                       const SpartaConfig& config) {
  SpartaStats stats;
  const int lanes = std::max(1, config.lanes);
  const int contexts = std::max(1, config.contexts_per_lane);

  // Task t goes to slot t % slots (round robin) or t / per_slot (blocked);
  // slot s is context s / lanes of lane s % lanes.
  std::vector<Lane> lane_state(lanes);
  std::vector<Context> context_state(static_cast<std::size_t>(lanes) *
                                     contexts);
  const std::size_t slots = context_state.size();
  const std::size_t per_slot = (count + slots - 1) / slots;
  for (int l = 0; l < lanes; ++l) {
    for (int c = 0; c < contexts; ++c) {
      const std::size_t slot = static_cast<std::size_t>(c) * lanes + l;
      Context& ctx = context_state[static_cast<std::size_t>(l) * contexts + c];
      if (config.partition == TaskPartition::kRoundRobin) {
        ctx.task = slot;
        ctx.stride = slots;
        ctx.task_end = count;
      } else {
        ctx.task = slot * per_slot;
        ctx.task_end = std::min(count, ctx.task + per_slot);
      }
      if (ctx.task < ctx.task_end) {
        ctx.load(tasks);
        ++lane_state[l].live_contexts;
      } else {
        ctx.ready_at = kRetired;
      }
    }
  }
  std::vector<int> active;  // lanes with a live context
  for (int l = 0; l < lanes; ++l) {
    if (lane_state[l].live_contexts > 0) active.push_back(l);
  }

  SetAssociativeCache cache(config.cache_lines, config.cache_ways);
  std::vector<std::uint64_t> channel_free(
      static_cast<std::size_t>(std::max(1, config.mem_channels)), 0);
  const Divisor line_of(static_cast<std::uint64_t>(config.cache_line_bytes));
  const Divisor channel_of(channel_free.size());

  // Global order: always advance the lane with the smallest (local time,
  // lane id), so shared-resource (cache, channel) ordering is consistent.
  // The other lanes' times stand still meanwhile, so the earliest lane runs
  // event after event until the runner-up's key is smaller than its own.
  while (!active.empty()) {
    // One pass finds the earliest lane and the runner-up.
    int lane_id = lanes;  // earliest
    std::uint64_t lane_now = kRetired;
    int bound_id = lanes;  // runner-up; none: the lane runs to completion
    std::uint64_t bound_now = kRetired;
    for (const int l : active) {
      const std::uint64_t t = lane_state[l].now;
      const bool first = t < lane_now || (t == lane_now && l < lane_id);
      const bool second = t < bound_now || (t == bound_now && l < bound_id);
      bound_now = first ? lane_now : (second ? t : bound_now);
      bound_id = first ? lane_id : (second ? l : bound_id);
      lane_now = first ? t : lane_now;
      lane_id = first ? l : lane_id;
    }
    const bool wins_ties = lane_id < bound_id;

    Lane& lane = lane_state[lane_id];
    Context* const ctx_begin =
        context_state.data() + static_cast<std::size_t>(lane_id) * contexts;
    Context* const ctx_end = ctx_begin + contexts;
    do {
      // Pick the ready context with the earliest ready_at (ties to the
      // lowest index); if none is ready, idle until the first becomes ready.
      // Both are the context with the earliest ready_at overall. The scan
      // is written as selects, which the compiler can turn into conditional
      // moves: the winner is unpredictable.
      Context* chosen = ctx_begin;
      std::uint64_t earliest = ctx_begin->ready_at;
      for (Context* ctx = ctx_begin + 1; ctx != ctx_end; ++ctx) {
        const bool sooner = ctx->ready_at < earliest;
        earliest = sooner ? ctx->ready_at : earliest;
        chosen = sooner ? ctx : chosen;
      }
      if (earliest > lane.now) {
        lane.now = earliest;
        continue;
      }

      Context& ctx = *chosen;
      if (ctx.step == ctx.step_end) {
        // Task complete; move to the next one in this context's queue.
        ++stats.tasks_executed;
        ctx.task += ctx.stride;
        if (ctx.task < ctx.task_end) {
          ctx.load(tasks);
        } else {
          ctx.ready_at = kRetired;
          --lane.live_contexts;
        }
        continue;
      }

      const TaskStep& step = *ctx.step++;
      // Compute phase occupies the lane datapath.
      const auto compute =
          static_cast<std::uint64_t>(std::max(0, step.compute_cycles));
      lane.now += compute;
      lane.busy_cycles += compute;
      if (step.address < 0) continue;

      ++stats.mem_requests;
      lane.busy_cycles += 1;  // issue cycle
      lane.now += 1;
      if (step.address < config.private_scratchpad_bytes) {
        // Lane-private scratchpad: fast local access, no NoC traffic.
        ++stats.scratchpad_hits;
        ctx.ready_at =
            lane.now + static_cast<std::uint64_t>(config.scratchpad_latency);
        continue;
      }
      const std::uint64_t line =
          line_of.quotient(static_cast<std::uint64_t>(step.address));
      if (cache.access(static_cast<std::int64_t>(line))) {
        ++stats.cache_hits;
        ctx.ready_at =
            lane.now + static_cast<std::uint64_t>(config.cache_hit_latency);
      } else {
        const std::size_t channel = channel_of.remainder(line);
        const std::uint64_t issue = std::max(lane.now, channel_free[channel]);
        channel_free[channel] =
            issue + static_cast<std::uint64_t>(config.channel_gap_cycles);
        ctx.ready_at =
            issue + static_cast<std::uint64_t>(config.mem_latency_cycles);
      }
      // Context blocks; the lane pays the switch penalty and looks for
      // another ready context immediately after.
      lane.now += static_cast<std::uint64_t>(config.context_switch_cycles);
    } while (lane.live_contexts > 0 &&
             (lane.now < bound_now || (lane.now == bound_now && wins_ties)));
    if (lane.live_contexts == 0) std::erase(active, lane_id);
  }

  std::uint64_t total = 0;
  double busy_fraction_sum = 0.0;
  for (const auto& lane : lane_state) {
    total = std::max(total, lane.now);
  }
  stats.cycles = std::max<std::uint64_t>(total, 1);
  for (const auto& lane : lane_state) {
    busy_fraction_sum += static_cast<double>(lane.busy_cycles) /
                         static_cast<double>(stats.cycles);
  }
  stats.lane_utilization = busy_fraction_sum / static_cast<double>(lanes);
  return stats;
}

}  // namespace

void SpartaConfig::validate() const {
  const std::string where = "hls::SpartaConfig";
  core::require_at_least(where, "cache_line_bytes", cache_line_bytes, 1);
  core::require_at_least(where, "mem_latency_cycles", mem_latency_cycles, 0);
  core::require_at_least(where, "channel_gap_cycles", channel_gap_cycles, 0);
  core::require_at_least(where, "cache_hit_latency", cache_hit_latency, 0);
  core::require_at_least(where, "context_switch_cycles",
                         context_switch_cycles, 0);
  core::require_at_least(where, "scratchpad_latency", scratchpad_latency, 0);
}

SpartaStats simulate_sparta(const std::vector<SpartaTask>& tasks,
                            const SpartaConfig& config) {
  config.validate();
  return run_sparta(tasks.data(), tasks.size(), config);
}

namespace {

constexpr int kWordBytes = 4;

}  // namespace

std::vector<SpartaTask> make_spmv_tasks(const core::CsrGraph& graph) {
  std::vector<SpartaTask> tasks;
  tasks.reserve(graph.num_vertices());
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    SpartaTask task;
    for (std::uint32_t e = graph.row_offsets[v]; e < graph.row_offsets[v + 1];
         ++e) {
      task.steps.push_back(
          {1, static_cast<std::int64_t>(graph.column_indices[e]) * kWordBytes});
    }
    if (!task.steps.empty()) tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<SpartaTask> make_bfs_tasks(const core::CsrGraph& graph) {
  std::vector<SpartaTask> tasks;
  tasks.reserve(graph.num_vertices());
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    SpartaTask task;
    for (std::uint32_t e = graph.row_offsets[v]; e < graph.row_offsets[v + 1];
         ++e) {
      // Load level[w], compare, conditional store (modeled as compute).
      task.steps.push_back(
          {1, static_cast<std::int64_t>(graph.column_indices[e]) * kWordBytes});
      task.steps.push_back({1, -1});
    }
    if (!task.steps.empty()) tasks.push_back(std::move(task));
  }
  return tasks;
}

std::vector<SpartaTask> make_pagerank_tasks(const core::CsrGraph& graph) {
  std::vector<SpartaTask> tasks;
  tasks.reserve(graph.num_vertices());
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    SpartaTask task;
    task.steps.push_back({2, -1});  // rank/degree division (pipelined)
    for (std::uint32_t e = graph.row_offsets[v]; e < graph.row_offsets[v + 1];
         ++e) {
      task.steps.push_back(
          {2, static_cast<std::int64_t>(graph.column_indices[e]) * kWordBytes});
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

SpartaConfig serial_baseline_config(const SpartaConfig& like) {
  SpartaConfig config = like;
  config.lanes = 1;
  config.contexts_per_lane = 1;
  config.mem_channels = 1;
  return config;
}

// ---------------------------------------------------------------------------
// SimPoint-style phase sampling.

namespace {

constexpr std::size_t kSignatureDims = 6;
using Signature = std::array<double, kSignatureDims>;

/// Static lane signature of one task interval. Cheap (no simulation): task
/// count, step count, irregular accesses, distinct line footprint, total
/// compute cycles, and access-to-footprint reuse -- the features that drive
/// the simulated KPIs (compute occupancy, cache behaviour, channel load).
Signature interval_signature(const std::vector<SpartaTask>& tasks,
                             std::size_t begin, std::size_t end,
                             const SpartaConfig& config) {
  double steps = 0.0;
  double accesses = 0.0;
  double scratch = 0.0;
  double compute = 0.0;
  std::unordered_set<std::int64_t> lines;
  for (std::size_t t = begin; t < end; ++t) {
    for (const TaskStep& step : tasks[t].steps) {
      steps += 1.0;
      compute += static_cast<double>(std::max(0, step.compute_cycles));
      if (step.address < 0) continue;
      accesses += 1.0;
      if (step.address < config.private_scratchpad_bytes) {
        scratch += 1.0;
      } else {
        lines.insert(step.address / config.cache_line_bytes);
      }
    }
  }
  const double distinct = static_cast<double>(lines.size());
  const double reuse = (accesses - scratch) / std::max(1.0, distinct);
  return {static_cast<double>(end - begin), steps,
          accesses,                         distinct,
          compute,                          reuse};
}

double distance2(const Signature& a, const Signature& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < kSignatureDims; ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return d2;
}

}  // namespace

void PhaseSamplingConfig::validate() const {
  const std::string where = "hls::PhaseSamplingConfig";
  core::require_at_least(where, "interval_tasks",
                         static_cast<double>(interval_tasks), 1);
  core::require_at_least(where, "phases", phases, 1);
  // A single-sample phase has no confidence interval.
  core::require_at_least(where, "samples_per_phase", samples_per_phase, 2);
  core::require_at_least(where, "kmeans_iters", kmeans_iters, 1);
  core::require_positive(where, "confidence", confidence);
  core::require_positive(where, "1 - confidence", 1.0 - confidence);
}

SpartaStats sparta_isolated_reference(const std::vector<SpartaTask>& tasks,
                                      const SpartaConfig& config,
                                      std::size_t interval_tasks) {
  config.validate();
  if (interval_tasks == 0) {
    throw core::Error("hls::sparta_isolated_reference",
                      "interval_tasks must be positive");
  }
  SpartaStats total;
  double util_cycles = 0.0;
  for (std::size_t begin = 0; begin < tasks.size(); begin += interval_tasks) {
    const std::size_t end = std::min(tasks.size(), begin + interval_tasks);
    const SpartaStats s = run_sparta(tasks.data() + begin, end - begin, config);
    total.cycles += s.cycles;
    total.mem_requests += s.mem_requests;
    total.cache_hits += s.cache_hits;
    total.scratchpad_hits += s.scratchpad_hits;
    total.tasks_executed += s.tasks_executed;
    util_cycles += s.lane_utilization * static_cast<double>(s.cycles);
  }
  total.lane_utilization =
      total.cycles > 0 ? util_cycles / static_cast<double>(total.cycles) : 0.0;
  return total;
}

PhaseSampleStats simulate_sparta_sampled(const std::vector<SpartaTask>& tasks,
                                         const SpartaConfig& config,
                                         const PhaseSamplingConfig& sampling) {
  config.validate();
  sampling.validate();
  PhaseSampleStats out;
  out.confidence = sampling.confidence;
  if (tasks.empty()) return out;

  // 1. Slice into consecutive intervals; the last one may be partial.
  const std::size_t n =
      (tasks.size() + sampling.interval_tasks - 1) / sampling.interval_tasks;
  out.intervals = n;
  std::vector<std::pair<std::size_t, std::size_t>> bounds(n);
  std::vector<Signature> sig(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = i * sampling.interval_tasks;
    const std::size_t end =
        std::min(tasks.size(), begin + sampling.interval_tasks);
    bounds[i] = {begin, end};
    sig[i] = interval_signature(tasks, begin, end, config);
  }

  // 2. Min-max normalise each feature so no dimension dominates the
  // distance; a constant feature collapses to zero.
  for (std::size_t d = 0; d < kSignatureDims; ++d) {
    double lo = sig[0][d], hi = sig[0][d];
    for (const Signature& s : sig) {
      lo = std::min(lo, s[d]);
      hi = std::max(hi, s[d]);
    }
    const double range = hi - lo;
    for (Signature& s : sig) {
      s[d] = range > 0.0 ? (s[d] - lo) / range : 0.0;
    }
  }

  // 3. Deterministic k-means: farthest-first init from a hash-picked
  // interval, fixed Lloyd iterations, all ties to the lowest index.
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(sampling.phases), n);
  std::vector<Signature> centers;
  centers.reserve(k);
  centers.push_back(sig[core::fault_hash(sampling.seed, 0) % n]);
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    std::size_t far = 0;
    double far_d2 = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], distance2(sig[i], centers.back()));
      if (nearest[i] > far_d2) {
        far_d2 = nearest[i];
        far = i;
      }
    }
    centers.push_back(sig[far]);
  }
  std::vector<std::size_t> assign(n, 0);
  for (int iter = 0; iter < sampling.kmeans_iters; ++iter) {
    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d2 = distance2(sig[i], centers[0]);
      for (std::size_t c = 1; c < centers.size(); ++c) {
        const double d2 = distance2(sig[i], centers[c]);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      if (assign[i] != best) moved = true;
      assign[i] = best;
    }
    std::vector<Signature> sums(centers.size(), Signature{});
    std::vector<std::size_t> counts(centers.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t d = 0; d < kSignatureDims; ++d) {
        sums[assign[i]][d] += sig[i][d];
      }
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < centers.size(); ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its center
      for (std::size_t d = 0; d < kSignatureDims; ++d) {
        centers[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (!moved) break;
  }

  std::vector<std::vector<std::size_t>> members(centers.size());
  for (std::size_t i = 0; i < n; ++i) members[assign[i]].push_back(i);

  // 4. Per phase: the representative closest to the centroid plus
  // hash-picked extra samples, each simulated in isolation.
  struct PhaseAccum {
    std::size_t population = 0;  // N_c: intervals in the phase
    core::sampling::OnlineStats cycles;
    double mem = 0.0, hits = 0.0, scratch = 0.0, exec = 0.0;
    double util_cycles = 0.0;  // sum of utilization * cycles over samples
  };
  std::vector<PhaseAccum> phases;
  phases.reserve(centers.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    if (members[c].empty()) continue;
    PhaseAccum acc;
    acc.population = members[c].size();

    std::size_t rep = members[c][0];
    double rep_d2 = distance2(sig[rep], centers[c]);
    for (std::size_t i : members[c]) {
      const double d2 = distance2(sig[i], centers[c]);
      if (d2 < rep_d2) {
        rep_d2 = d2;
        rep = i;
      }
    }
    std::vector<std::size_t> picks{rep};
    std::vector<std::size_t> rest;
    for (std::size_t i : members[c]) {
      if (i != rep) rest.push_back(i);
    }
    const std::size_t want = std::min<std::size_t>(
        static_cast<std::size_t>(sampling.samples_per_phase),
        members[c].size());
    for (std::size_t j = 1; j < want; ++j) {
      const std::size_t at = core::fault_hash(
                                 sampling.seed,
                                 (static_cast<std::uint64_t>(c) << 32) | j) %
                             rest.size();
      picks.push_back(rest[at]);
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(at));
    }
    std::sort(picks.begin(), picks.end());

    for (std::size_t i : picks) {
      const auto [begin, end] = bounds[i];
      const SpartaStats s =
          run_sparta(tasks.data() + begin, end - begin, config);
      acc.cycles.push(static_cast<double>(s.cycles));
      acc.mem += static_cast<double>(s.mem_requests);
      acc.hits += static_cast<double>(s.cache_hits);
      acc.scratch += static_cast<double>(s.scratchpad_hits);
      acc.exec += static_cast<double>(s.tasks_executed);
      acc.util_cycles +=
          s.lane_utilization * static_cast<double>(s.cycles);
    }
    out.intervals_simulated += picks.size();
    phases.push_back(std::move(acc));
  }
  out.phases_used = phases.size();

  // 5. Stratified total with finite-population correction. A one-interval
  // phase is simulated exactly (its fpc is zero), so every variance term
  // with fpc > 0 has n_c >= 2 and the estimate is always finite.
  double total = 0.0;
  double variance = 0.0;
  double df_denom = 0.0;
  double mem = 0.0, hits = 0.0, scratch = 0.0, exec = 0.0;
  double util_cycles_total = 0.0;
  for (const PhaseAccum& acc : phases) {
    const double big_n = static_cast<double>(acc.population);
    const double small_n = static_cast<double>(acc.cycles.count());
    total += big_n * acc.cycles.mean();
    const double fpc = 1.0 - small_n / big_n;
    if (fpc > 0.0 && small_n >= 2.0) {
      const double term =
          fpc * big_n * big_n * acc.cycles.variance() / small_n;
      variance += term;
      df_denom += term * term / (small_n - 1.0);
    }
    const double scale = big_n / small_n;
    mem += scale * acc.mem;
    hits += scale * acc.hits;
    scratch += scale * acc.scratch;
    exec += scale * acc.exec;
    util_cycles_total += scale * acc.util_cycles;
  }
  out.cycles_estimate = total;
  if (variance > 0.0) {
    const double df =
        df_denom > 0.0 ? std::max(1.0, (variance * variance) / df_denom)
                       : 1.0;
    out.cycles_half_width =
        core::student_t_critical(df, sampling.confidence) *
        std::sqrt(variance);
  }

  out.reconstructed.cycles = static_cast<std::uint64_t>(
      std::llround(std::max(0.0, out.cycles_estimate)));
  out.reconstructed.mem_requests =
      static_cast<std::uint64_t>(std::llround(mem));
  out.reconstructed.cache_hits =
      static_cast<std::uint64_t>(std::llround(hits));
  out.reconstructed.scratchpad_hits =
      static_cast<std::uint64_t>(std::llround(scratch));
  out.reconstructed.tasks_executed =
      static_cast<std::uint64_t>(std::llround(exec));
  out.reconstructed.lane_utilization =
      total > 0.0 ? util_cycles_total / total : 0.0;

  ICSC_TRACE_COUNT("sampling.sparta.intervals", n);
  ICSC_TRACE_COUNT("sampling.sparta.simulated", out.intervals_simulated);
  ICSC_TRACE_COUNT("sampling.sparta.skipped", n - out.intervals_simulated);
  return out;
}

}  // namespace icsc::hls
