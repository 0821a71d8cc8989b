#include "core/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace icsc::core::sampling {

void OnlineStats::push(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  // m2_ can dip infinitesimally negative from cancellation on
  // near-constant streams; clamp so stddev() never NaNs.
  return std::max(0.0, m2_) / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double Estimate::relative_half_width(double floor) const {
  const double scale = std::max(std::fabs(mean), floor);
  return scale > 0.0 ? half_width / scale
                     : std::numeric_limits<double>::infinity();
}

Estimate mean_estimate(const OnlineStats& stats, double confidence) {
  Estimate e;
  e.mean = stats.mean();
  e.stddev = stats.stddev();
  e.count = stats.count();
  e.confidence = confidence;
  if (stats.count() < 2) {
    e.half_width = std::numeric_limits<double>::infinity();
    return e;
  }
  const double t = student_t_critical(
      static_cast<double>(stats.count() - 1), confidence);
  e.half_width = t * e.stddev / std::sqrt(static_cast<double>(stats.count()));
  return e;
}

double stddev_half_width(const OnlineStats& stats, double confidence) {
  if (stats.count() < 2) return std::numeric_limits<double>::infinity();
  const double z = normal_critical(confidence);
  return z * stats.stddev() /
         std::sqrt(2.0 * static_cast<double>(stats.count() - 1));
}

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kConverged: return "converged";
    case StopReason::kBudget: return "budget";
  }
  return "unknown";
}

void EarlyStopConfig::validate() const {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw Error("core::sampling", "confidence must be in (0, 1)",
                "got " + std::to_string(confidence));
  }
  if (!(relative_half_width > 0.0)) {
    throw Error("core::sampling", "relative_half_width must be > 0",
                "got " + std::to_string(relative_half_width));
  }
  if (!(absolute_floor >= 0.0)) {
    throw Error("core::sampling", "absolute_floor must be >= 0",
                "got " + std::to_string(absolute_floor));
  }
  if (min_trials < 2) {
    throw Error("core::sampling", "min_trials must be >= 2",
                "got " + std::to_string(min_trials));
  }
  if (check_every == 0) {
    throw Error("core::sampling", "check_every must be >= 1");
  }
}

SequentialController::SequentialController(const EarlyStopConfig& config,
                                           std::size_t kpis)
    : config_(config), kpis_(kpis) {
  config_.validate();
  if (kpis == 0) {
    throw Error("core::sampling", "controller needs at least one KPI");
  }
}

bool SequentialController::converged() const {
  for (const auto& stats : kpis_) {
    const Estimate e = mean_estimate(stats, config_.confidence);
    if (!(e.relative_half_width(config_.absolute_floor) <=
          config_.relative_half_width)) {
      return false;
    }
  }
  return true;
}

bool SequentialController::observe(std::span<const double> kpi_values) {
  if (stopped_) {
    throw Error("core::sampling",
                "observe() after the stop rule already fired",
                "trial " + std::to_string(trials_));
  }
  if (kpi_values.size() != kpis_.size()) {
    throw Error("core::sampling", "KPI vector size mismatch",
                std::to_string(kpi_values.size()) + " vs " +
                    std::to_string(kpis_.size()));
  }
  for (std::size_t i = 0; i < kpis_.size(); ++i) kpis_[i].push(kpi_values[i]);
  ++trials_;
  if (!config_.enabled) return false;
  if (trials_ < config_.min_trials) return false;
  if ((trials_ - config_.min_trials) % config_.check_every != 0) return false;
  if (converged()) stopped_ = true;
  return stopped_;
}

Estimate SequentialController::estimate(std::size_t i) const {
  if (i >= kpis_.size()) {
    throw Error("core::sampling", "KPI index out of range",
                std::to_string(i) + " >= " + std::to_string(kpis_.size()));
  }
  return mean_estimate(kpis_[i], config_.confidence);
}

std::vector<std::size_t> neyman_allocation(std::span<const double> weights,
                                           std::span<const double> sigmas,
                                           std::size_t budget,
                                           std::size_t min_per_stratum) {
  if (weights.empty()) {
    throw Error("core::sampling", "neyman_allocation needs >= 1 stratum");
  }
  if (weights.size() != sigmas.size()) {
    throw Error("core::sampling", "weights/sigmas size mismatch",
                std::to_string(weights.size()) + " vs " +
                    std::to_string(sigmas.size()));
  }
  const std::size_t strata = weights.size();
  if (budget < strata * min_per_stratum) {
    throw Error("core::sampling", "budget below strata * min_per_stratum",
                std::to_string(budget) + " < " +
                    std::to_string(strata * min_per_stratum));
  }
  double score_sum = 0.0;
  for (std::size_t h = 0; h < strata; ++h) {
    if (!(weights[h] > 0.0)) {
      throw Error("core::sampling", "stratum weights must be > 0",
                  "stratum " + std::to_string(h));
    }
    if (!(sigmas[h] >= 0.0)) {
      throw Error("core::sampling", "stratum sigmas must be >= 0",
                  "stratum " + std::to_string(h));
    }
    score_sum += weights[h] * sigmas[h];
  }
  // All-zero sigmas (e.g. a pilot that saw constant KPIs): fall back to
  // weight-proportional so the allocation is still well defined.
  std::vector<double> scores(strata);
  if (score_sum > 0.0) {
    for (std::size_t h = 0; h < strata; ++h) {
      scores[h] = weights[h] * sigmas[h] / score_sum;
    }
  } else {
    double weight_sum = 0.0;
    for (const double w : weights) weight_sum += w;
    for (std::size_t h = 0; h < strata; ++h) scores[h] = weights[h] / weight_sum;
  }

  std::vector<std::size_t> alloc(strata, min_per_stratum);
  const std::size_t spread = budget - strata * min_per_stratum;
  std::vector<double> remainders(strata);
  std::size_t assigned = 0;
  for (std::size_t h = 0; h < strata; ++h) {
    const double ideal = static_cast<double>(spread) * scores[h];
    const auto whole = static_cast<std::size_t>(ideal);
    alloc[h] += whole;
    assigned += whole;
    remainders[h] = ideal - static_cast<double>(whole);
  }
  // Largest-remainder rounding; ties deterministically to the lower index.
  std::vector<std::size_t> order(strata);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return remainders[a] > remainders[b];
                   });
  for (std::size_t i = 0; assigned < spread; ++i) {
    ++alloc[order[i % strata]];
    ++assigned;
  }
  ICSC_TRACE_COUNT("sampling.strata.allocated", strata);
  return alloc;
}

Estimate combine_strata(std::span<const double> weights,
                        std::span<const OnlineStats> strata,
                        double confidence) {
  if (weights.empty() || weights.size() != strata.size()) {
    throw Error("core::sampling", "combine_strata size mismatch",
                std::to_string(weights.size()) + " vs " +
                    std::to_string(strata.size()));
  }
  double weight_sum = 0.0;
  for (const double w : weights) {
    if (!(w > 0.0)) {
      throw Error("core::sampling", "stratum weights must be > 0");
    }
    weight_sum += w;
  }
  ICSC_TRACE_COUNT("sampling.strata.combined", strata.size());
  Estimate e;
  e.confidence = confidence;
  double variance = 0.0;          // of the stratified mean
  double df_denom = 0.0;          // Welch-Satterthwaite denominator
  bool unknown_variance = false;
  for (std::size_t h = 0; h < strata.size(); ++h) {
    const double w = weights[h] / weight_sum;
    e.mean += w * strata[h].mean();
    e.count += strata[h].count();
    if (strata[h].count() < 2) {
      unknown_variance = true;
      continue;
    }
    const double term = w * w * strata[h].variance() /
                        static_cast<double>(strata[h].count());
    variance += term;
    df_denom += term * term / static_cast<double>(strata[h].count() - 1);
  }
  e.stddev = std::sqrt(variance);
  if (unknown_variance) {
    e.half_width = std::numeric_limits<double>::infinity();
    return e;
  }
  if (variance == 0.0) {
    e.half_width = 0.0;
    return e;
  }
  const double df =
      df_denom > 0.0 ? std::max(1.0, variance * variance / df_denom) : 1.0;
  e.half_width = student_t_critical(df, confidence) * e.stddev;
  return e;
}

}  // namespace icsc::core::sampling
