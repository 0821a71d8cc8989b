#include "core/fault.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>

#include "core/checkpoint.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"

namespace icsc::core {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kStuckAtLow: return "stuck-at-low";
    case FaultKind::kStuckAtHigh: return "stuck-at-high";
    case FaultKind::kTransientFlip: return "transient-flip";
    case FaultKind::kDrift: return "drift";
    case FaultKind::kDropout: return "dropout";
    case FaultKind::kDelay: return "delay";
  }
  return "unknown";
}

double fault_uniform(std::uint64_t seed, std::uint64_t site) {
  return static_cast<double>(fault_hash(seed, site) >> 11) * 0x1.0p-53;
}

bool fault_fires(std::uint64_t seed, std::uint64_t site, double rate) {
  return rate > 0.0 && fault_uniform(seed, site) < rate;
}

namespace {

// Domain separators so the kind draw, the low/high split, severity, and
// transient draws are mutually independent streams.
constexpr std::uint64_t kKindDomain = 0xFA'01;
constexpr std::uint64_t kSplitDomain = 0xFA'02;
constexpr std::uint64_t kSeverityDomain = 0xFA'03;
constexpr std::uint64_t kTransientDomain = 0xFA'04;

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t stream)
    : config_(config),
      key_(fault_hash(config.seed, stream ^ 0x51'7E'AD'5ULL)),
      enabled_(config.any()) {}

FaultKind FaultInjector::at(std::uint64_t site) const {
  if (!enabled_) return FaultKind::kNone;
  const double u = fault_uniform(key_ ^ kKindDomain, site);
  // Cumulative thresholds: one uniform classifies the site, so each kind's
  // set is nested as its own rate grows (the preceding rates held fixed).
  double edge = config_.stuck_at_rate;
  if (u < edge) {
    // Independent bit decides the stuck polarity, so the low/high split
    // does not reshuffle as stuck_at_rate is swept.
    return (fault_hash(key_ ^ kSplitDomain, site) & 1) != 0
               ? FaultKind::kStuckAtHigh
               : FaultKind::kStuckAtLow;
  }
  if (u < (edge += config_.drift_rate)) return FaultKind::kDrift;
  if (u < (edge += config_.dropout_rate)) return FaultKind::kDropout;
  if (u < (edge += config_.delay_rate)) return FaultKind::kDelay;
  return FaultKind::kNone;
}

bool FaultInjector::transient(std::uint64_t site, std::uint64_t op) const {
  if (!enabled_ || config_.transient_rate <= 0.0) return false;
  return fault_uniform(key_ ^ kTransientDomain,
                       fault_hash(site, op)) < config_.transient_rate;
}

double FaultInjector::severity(std::uint64_t site) const {
  return fault_uniform(key_ ^ kSeverityDomain, site);
}

std::uint64_t FaultCampaign::trial_seed(std::size_t t) const {
  return fault_hash(seed_ ^ 0xCA'4D'A1'5ULL, t);
}

std::vector<TrialResult> FaultCampaign::run(
    const std::function<TrialResult(std::uint64_t, std::size_t)>& fn) const {
  ICSC_TRACE_SPAN("campaign/run");
  ICSC_TRACE_COUNT("campaign.trials", trials_);
  return parallel_map(trials_, 1, [&](std::size_t t) {
    return fn(trial_seed(t), t);
  });
}

namespace {

constexpr std::uint32_t kCampaignSnapshotKind = 0x46434D50;  // "FCMP"
constexpr std::uint32_t kCampaignSnapshotVersion = 1;

void put_trial(SnapshotWriter& writer, const TrialResult& trial) {
  writer.put_f64(trial.metric);
  writer.put_f64(trial.latency);
  writer.put_bool(trial.completed);
  writer.put_u64(trial.faults_injected);
  writer.put_u64(trial.repairs);
}

TrialResult get_trial(SnapshotReader& reader) {
  TrialResult trial;
  trial.metric = reader.get_f64();
  trial.latency = reader.get_f64();
  trial.completed = reader.get_bool();
  trial.faults_injected = reader.get_u64();
  trial.repairs = reader.get_u64();
  return trial;
}

void save_campaign_snapshot(const std::string& path, std::uint64_t fingerprint,
                            const std::vector<TrialResult>& results,
                            bool completed) {
  SnapshotWriter writer;
  writer.put_u64(fingerprint);
  writer.put_bool(completed);
  writer.put_u64(results.size());
  for (const auto& trial : results) put_trial(writer, trial);
  writer.save(path, kCampaignSnapshotKind, kCampaignSnapshotVersion);
}

}  // namespace

namespace {

/// Fills the early-stop accounting of a finished (or truncated) outcome
/// from its trial prefix; pure function of the prefix, so resumed and
/// uninterrupted runs report bit-identical estimates.
void finalize_sequential(CampaignRunOutcome& outcome, std::size_t budget,
                         const CampaignRunOptions& options) {
  if (!options.early_stop.enabled) return;
  sampling::OnlineStats metric, latency;
  for (const auto& r : outcome.results) {
    metric.push(r.metric);
    latency.push(r.latency);
  }
  const double confidence = options.early_stop.confidence;
  outcome.metric_estimate = sampling::mean_estimate(metric, confidence);
  outcome.latency_estimate = sampling::mean_estimate(latency, confidence);
  outcome.stopped_early =
      outcome.completed && outcome.results.size() < budget;
  if (outcome.stopped_early) {
    outcome.stop_reason = sampling::StopReason::kConverged;
  } else if (outcome.results.size() == budget) {
    outcome.stop_reason = sampling::StopReason::kBudget;
  } else {
    outcome.stop_reason = sampling::StopReason::kNone;
  }
  if (outcome.completed) {
    ICSC_TRACE_COUNT("sampling.trials_run", outcome.results.size());
    ICSC_TRACE_COUNT("sampling.trials_saved",
                     budget - outcome.results.size());
    if (outcome.stop_reason == sampling::StopReason::kConverged) {
      ICSC_TRACE_COUNT("sampling.stop.converged", 1);
    } else {
      ICSC_TRACE_COUNT("sampling.stop.budget", 1);
    }
  }
}

}  // namespace

CampaignRunOutcome FaultCampaign::run(
    const std::function<TrialResult(std::uint64_t, std::size_t)>& fn,
    const CampaignRunOptions& options) const {
  ICSC_TRACE_SPAN("campaign/run_resilient");
  const bool sequential = options.early_stop.enabled;
  // The fingerprint pins a snapshot to this exact campaign: resuming a
  // different (seed, trials) run from it would silently mix experiments.
  // The early-stop rule is folded in so a snapshot taken under one
  // stopping rule (or none) is never resumed under another.
  std::uint64_t fingerprint = fault_hash(seed_ ^ 0xC4'3C'4B'01ULL, trials_);
  if (sequential) {
    fingerprint = fault_hash(
        fingerprint, options.early_stop.fingerprint() ^
                         (options.early_stop_track_latency ? 0x1A7E0C1ULL : 0));
  }
  // The controller only ever sees trials in trial order, so its verdict is
  // a pure function of the completed prefix regardless of thread count,
  // checkpoint granularity, or how many kill/resume cycles preceded us.
  std::optional<sampling::SequentialController> controller;
  if (sequential) {
    controller.emplace(options.early_stop,
                       options.early_stop_track_latency ? 2u : 1u);
  }
  auto feed = [&](const TrialResult& r) {
    if (!controller) return false;
    if (options.early_stop_track_latency) {
      const double kpis[2] = {r.metric, r.latency};
      return controller->observe(kpis);
    }
    return controller->observe(std::span<const double>(&r.metric, 1));
  };

  CampaignRunOutcome outcome;
  outcome.trials_budgeted = trials_;
  bool snapshot_completed = false;
  if (!options.checkpoint_path.empty()) {
    if (auto snapshot = SnapshotReader::try_load(options.checkpoint_path,
                                                 kCampaignSnapshotKind,
                                                 kCampaignSnapshotVersion)) {
      if (snapshot->get_u64() != fingerprint) {
        throw Error("core::fault",
                    "checkpoint belongs to a different campaign",
                    options.checkpoint_path);
      }
      snapshot_completed = snapshot->get_bool();
      const std::uint64_t done = snapshot->get_u64();
      outcome.results.reserve(static_cast<std::size_t>(done));
      for (std::uint64_t t = 0; t < done; ++t) {
        outcome.results.push_back(get_trial(*snapshot));
      }
      outcome.resumed_trials = outcome.results.size();
    }
  }
  // Replay the resumed prefix through the stopping rule. A prior process
  // never persists past its own stop point, but truncate defensively so a
  // hand-edited snapshot cannot push the campaign beyond it.
  bool stopped = false;
  if (controller) {
    for (std::size_t t = 0; t < outcome.results.size() && !stopped; ++t) {
      if (feed(outcome.results[t])) {
        outcome.results.resize(t + 1);
        outcome.resumed_trials = outcome.results.size();
        stopped = true;
      }
    }
  }
  if (snapshot_completed || stopped) {
    outcome.completed = true;
    finalize_sequential(outcome, trials_, options);
    return outcome;
  }

  const CancelToken token = options.cancel.with_deadline(options.deadline);
  const std::size_t block = std::max<std::size_t>(1, options.checkpoint_every);
  const std::size_t stop_at =
      options.trial_budget == 0
          ? trials_
          : std::min(trials_, outcome.results.size() + options.trial_budget);
  bool cancelled = false;
  while (outcome.results.size() < stop_at && !cancelled && !stopped) {
    if (token.cancelled()) {
      cancelled = true;
      break;
    }
    const std::size_t base = outcome.results.size();
    const std::size_t block_end = std::min(stop_at, base + block);
    auto results = parallel_map(
        block_end - base, 1,
        [&](std::size_t i) { return fn(trial_seed(base + i), base + i); },
        token);
    cancelled = results.size() < block_end - base;
    ICSC_TRACE_COUNT("campaign.trials", results.size());
    for (auto& trial : results) {
      outcome.results.push_back(trial);
      if (feed(trial)) {
        // Stop point reached: any trials computed past it in this block
        // are discarded so the persisted prefix IS the stop prefix.
        stopped = true;
        break;
      }
    }
    outcome.completed =
        (outcome.results.size() == trials_ && !cancelled) || stopped;
    if (!options.checkpoint_path.empty()) {
      save_campaign_snapshot(options.checkpoint_path, fingerprint,
                             outcome.results, outcome.completed);
    }
  }
  outcome.completed =
      (outcome.results.size() == trials_ && !cancelled) || stopped;
  finalize_sequential(outcome, trials_, options);
  return outcome;
}

CampaignSummary FaultCampaign::summarize(
    const std::vector<TrialResult>& results) {
  CampaignSummary summary;
  summary.trials = results.size();
  if (results.empty()) return summary;
  summary.min_metric = std::numeric_limits<double>::infinity();
  summary.max_metric = -std::numeric_limits<double>::infinity();
  std::size_t completed = 0;
  for (const auto& r : results) {
    summary.mean_metric += r.metric;
    summary.mean_latency += r.latency;
    summary.min_metric = std::min(summary.min_metric, r.metric);
    summary.max_metric = std::max(summary.max_metric, r.metric);
    summary.total_faults += r.faults_injected;
    summary.total_repairs += r.repairs;
    if (r.completed) ++completed;
  }
  const auto n = static_cast<double>(results.size());
  summary.mean_metric /= n;
  summary.mean_latency /= n;
  summary.completion_rate = static_cast<double>(completed) / n;
  return summary;
}

sampling::Estimate campaign_metric_estimate(
    const std::vector<TrialResult>& results, double confidence) {
  sampling::OnlineStats stats;
  for (const auto& r : results) stats.push(r.metric);
  return sampling::mean_estimate(stats, confidence);
}

sampling::Estimate campaign_latency_estimate(
    const std::vector<TrialResult>& results, double confidence) {
  sampling::OnlineStats stats;
  for (const auto& r : results) stats.push(r.latency);
  return sampling::mean_estimate(stats, confidence);
}

bool campaign_results_identical(const std::vector<TrialResult>& a,
                                const std::vector<TrialResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].metric != b[i].metric || a[i].latency != b[i].latency ||
        a[i].completed != b[i].completed ||
        a[i].faults_injected != b[i].faults_injected ||
        a[i].repairs != b[i].repairs) {
      return false;
    }
  }
  return true;
}

}  // namespace icsc::core
