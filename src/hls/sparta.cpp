#include "hls/sparta.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <string>
#include <unordered_set>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace icsc::hls {

namespace {

/// Set-associative LRU memory-side cache over line addresses (1 way =
/// direct mapped).
class SetAssociativeCache {
public:
  SetAssociativeCache(int lines, int line_bytes, int ways)
      : line_bytes_(line_bytes),
        ways_(std::max(1, ways)),
        sets_(std::max(1, std::max(1, lines) / std::max(1, ways))),
        tags_(static_cast<std::size_t>(sets_) * ways_, -1),
        age_(static_cast<std::size_t>(sets_) * ways_, 0) {}

  bool access(std::int64_t address) {
    const std::int64_t line = address / line_bytes_;
    const std::size_t set =
        static_cast<std::size_t>(line) % static_cast<std::size_t>(sets_);
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
  int line_bytes_;
  int ways_;
  int sets_;
  std::vector<std::int64_t> tags_;
  std::vector<std::uint64_t> age_;
  std::uint64_t clock_ = 0;
};

struct Context {
  std::vector<std::size_t> task_queue;  // indices into the task list
  std::size_t current_task = 0;         // position within task_queue
  std::size_t current_step = 0;         // position within the task
  std::uint64_t ready_at = 0;           // cycle the context can run again

  bool done() const { return current_task >= task_queue.size(); }
};

struct Lane {
  std::vector<Context> contexts;
  std::uint64_t now = 0;
  std::uint64_t busy_cycles = 0;
};

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
  SpartaStats stats;
  const int lanes = std::max(1, config.lanes);
  const int contexts = std::max(1, config.contexts_per_lane);

  // Partition tasks over (lane, context) slots.
  std::vector<Lane> lane_state(lanes);
  for (auto& lane : lane_state) lane.contexts.resize(contexts);
  const std::size_t slots = static_cast<std::size_t>(lanes) * contexts;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    std::size_t slot;
    if (config.partition == TaskPartition::kRoundRobin) {
      slot = t % slots;
    } else {
      const std::size_t per_slot = (tasks.size() + slots - 1) / slots;
      slot = t / per_slot;
    }
    lane_state[slot % lanes].contexts[slot / lanes].task_queue.push_back(t);
  }

  SetAssociativeCache cache(config.cache_lines, config.cache_line_bytes,
                            config.cache_ways);
  std::vector<std::uint64_t> channel_free(
      static_cast<std::size_t>(std::max(1, config.mem_channels)), 0);

  // Global order: always advance the lane with the smallest local time so
  // shared-resource (cache, channel) ordering is consistent.
  auto lane_has_work = [&](const Lane& lane) {
    for (const auto& ctx : lane.contexts) {
      if (!ctx.done()) return true;
    }
    return false;
  };

  using LaneKey = std::pair<std::uint64_t, int>;  // (time, lane id)
  std::priority_queue<LaneKey, std::vector<LaneKey>, std::greater<>> agenda;
  for (int l = 0; l < lanes; ++l) {
    if (lane_has_work(lane_state[l])) agenda.push({0, l});
  }

  while (!agenda.empty()) {
    const auto [when, lane_id] = agenda.top();
    agenda.pop();
    Lane& lane = lane_state[lane_id];
    lane.now = std::max(lane.now, when);
    if (!lane_has_work(lane)) continue;

    // Pick the ready context with the earliest ready_at (round-robin-ish,
    // deterministic); if none ready, idle until the first becomes ready.
    int chosen = -1;
    std::uint64_t earliest_ready = ~0ull;
    for (int c = 0; c < contexts; ++c) {
      const Context& ctx = lane.contexts[c];
      if (ctx.done()) continue;
      if (ctx.ready_at <= lane.now &&
          (chosen < 0 || ctx.ready_at < lane.contexts[chosen].ready_at)) {
        chosen = c;
      }
      earliest_ready = std::min(earliest_ready, ctx.ready_at);
    }
    if (chosen < 0) {
      lane.now = std::max(lane.now, earliest_ready);
      agenda.push({lane.now, lane_id});
      continue;
    }

    Context& ctx = lane.contexts[chosen];
    const SpartaTask& task = tasks[ctx.task_queue[ctx.current_task]];
    if (ctx.current_step >= task.steps.size()) {
      // Task complete; move to the next one in this context's queue.
      ++stats.tasks_executed;
      ++ctx.current_task;
      ctx.current_step = 0;
      if (lane_has_work(lane)) agenda.push({lane.now, lane_id});
      continue;
    }

    const TaskStep& step = task.steps[ctx.current_step++];
    // Compute phase occupies the lane datapath.
    lane.now += static_cast<std::uint64_t>(std::max(0, step.compute_cycles));
    lane.busy_cycles += static_cast<std::uint64_t>(std::max(0, step.compute_cycles));

    if (step.address >= 0) {
      ++stats.mem_requests;
      lane.busy_cycles += 1;  // issue cycle
      lane.now += 1;
      if (step.address < config.private_scratchpad_bytes) {
        // Lane-private scratchpad: fast local access, no NoC traffic.
        ++stats.scratchpad_hits;
        ctx.ready_at =
            lane.now + static_cast<std::uint64_t>(config.scratchpad_latency);
        agenda.push({lane.now, lane_id});
        continue;
      }
      const bool hit = cache.access(step.address);
      if (hit) {
        ++stats.cache_hits;
        ctx.ready_at = lane.now + static_cast<std::uint64_t>(config.cache_hit_latency);
      } else {
        const std::size_t channel =
            static_cast<std::size_t>(step.address / config.cache_line_bytes) %
            channel_free.size();
        const std::uint64_t issue = std::max(lane.now, channel_free[channel]);
        channel_free[channel] =
            issue + static_cast<std::uint64_t>(config.channel_gap_cycles);
        ctx.ready_at =
            issue + static_cast<std::uint64_t>(config.mem_latency_cycles);
      }
      // Context blocks; the lane pays the switch penalty and looks for
      // another ready context immediately after.
      lane.now += static_cast<std::uint64_t>(config.context_switch_cycles);
    }
    agenda.push({lane.now, lane_id});
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

void check_sampling_config(const PhaseSamplingConfig& sampling) {
  if (sampling.interval_tasks == 0) {
    throw core::Error("hls::simulate_sparta_sampled",
                      "interval_tasks must be positive");
  }
  if (sampling.phases < 1) {
    throw core::Error("hls::simulate_sparta_sampled",
                      "phases must be at least 1");
  }
  if (sampling.samples_per_phase < 2) {
    throw core::Error("hls::simulate_sparta_sampled",
                      "samples_per_phase must be at least 2",
                      "a single-sample phase has no confidence interval");
  }
  if (sampling.kmeans_iters < 1) {
    throw core::Error("hls::simulate_sparta_sampled",
                      "kmeans_iters must be at least 1");
  }
  if (!(sampling.confidence > 0.0) || !(sampling.confidence < 1.0)) {
    throw core::Error("hls::simulate_sparta_sampled",
                      "confidence must be in (0, 1)");
  }
}

}  // namespace

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
    const std::vector<SpartaTask> slice(tasks.begin() + begin,
                                        tasks.begin() + end);
    const SpartaStats s = simulate_sparta(slice, config);
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
  check_sampling_config(sampling);
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
      const std::vector<SpartaTask> slice(tasks.begin() + begin,
                                          tasks.begin() + end);
      const SpartaStats s = simulate_sparta(slice, config);
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
