#include "core/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <span>
#include <string>

#include "core/error.hpp"
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

void FaultConfig::validate() const {
  const std::string where = "core::FaultConfig";
  const auto require_rate = [&](const char* field, double rate, double max) {
    core::require_at_least(where, field, rate, 0.0);
    if (rate <= max) return;
    char got[40];
    std::snprintf(got, sizeof got, "got %g", rate);
    throw Error(where, std::string(field) + " must be <= 1", got);
  };
  require_rate("stuck_at_rate", stuck_at_rate, 1.0);
  require_rate("transient_rate", transient_rate, 1.0);
  require_rate("drift_rate", drift_rate, 1.0);
  require_rate("dropout_rate", dropout_rate, 1.0);
  require_rate("delay_rate", delay_rate, 1.0);
  // Rounding slack: 0.1 + 0.2 + 0.3 + 0.4 is a hair above 1 in doubles.
  require_rate("stuck_at_rate + drift_rate + dropout_rate + delay_rate",
               stuck_at_rate + drift_rate + dropout_rate + delay_rate,
               1.0 + 1e-12);
}

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t stream)
    : config_(config),
      key_(fault_hash(config.seed, stream ^ 0x51'7E'AD'5ULL)),
      enabled_(config.any()) {
  config.validate();
}

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

CampaignRunOutcome FaultCampaign::run(
    const std::function<TrialResult(std::uint64_t, std::size_t)>& fn,
    const CampaignRunOptions& options) const {
  CampaignRunOutcome outcome;
  outcome.trials_budgeted = trials_;
  if (!options.early_stop.enabled) {
    outcome.results = run(fn);
    return outcome;
  }
  ICSC_TRACE_SPAN("campaign/run_early_stop");
  // The controller sees trials in trial order and fires only at a check
  // point, so each block runs up to the next check point on the pool and
  // the stop lands on the block's last trial: nothing runs past it.
  const sampling::EarlyStopConfig& stop = options.early_stop;
  const std::size_t kpis = options.early_stop_track_latency ? 2 : 1;
  sampling::SequentialController controller(stop, kpis);
  bool stopped = false;
  while (outcome.results.size() < trials_ && !stopped) {
    const std::size_t base = outcome.results.size();
    const std::size_t check = base < stop.min_trials
                                  ? stop.min_trials
                                  : base + stop.check_every;
    const std::size_t block_end = std::min(trials_, check);
    auto results = parallel_map(block_end - base, 1, [&](std::size_t i) {
      return fn(trial_seed(base + i), base + i);
    });
    ICSC_TRACE_COUNT("campaign.trials", results.size());
    for (const TrialResult& r : results) {
      outcome.results.push_back(r);
      const double values[2] = {r.metric, r.latency};
      if (controller.observe(std::span<const double>(values, kpis))) {
        stopped = true;
        break;
      }
    }
  }
  const std::size_t trials_run = outcome.results.size();
  outcome.metric_estimate =
      campaign_metric_estimate(outcome.results, stop.confidence);
  outcome.latency_estimate =
      campaign_latency_estimate(outcome.results, stop.confidence);
  outcome.stopped_early = trials_run < trials_;
  ICSC_TRACE_COUNT("sampling.trials_run", trials_run);
  ICSC_TRACE_COUNT("sampling.trials_saved", trials_ - trials_run);
  if (outcome.stopped_early) {
    outcome.stop_reason = sampling::StopReason::kConverged;
    ICSC_TRACE_COUNT("sampling.stop.converged", 1);
  } else {
    outcome.stop_reason = sampling::StopReason::kBudget;
    ICSC_TRACE_COUNT("sampling.stop.budget", 1);
  }
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
