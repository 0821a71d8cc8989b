// Statistical campaign acceleration: online accumulators, sequential
// confidence-interval early stopping, and stratified (Neyman) allocation.
//
// The framework's Monte-Carlo campaigns -- IMC device variation sweeps
// (Sec. IV), fault-injection campaigns (core/fault.hpp), cycle-approximate
// SPARTA runs (Sec. III) -- historically ran fixed trial budgets, wasting
// most of their work on already-converged estimates. This module supplies
// the three statistical primitives that convert a fixed budget into a
// stopping rule at equal statistical power:
//
//   OnlineStats          -- Welford mean/variance accumulator: one pass,
//                           numerically stable, deterministic for a given
//                           input order.
//   SequentialController -- CI-driven early stopping: stop once the
//                           relative confidence-interval half-width of
//                           every tracked KPI falls below a target. The
//                           stop decision is a *pure function of the
//                           completed-trial prefix* (no wall clock, no
//                           RNG), so the stop point and its estimates do
//                           not depend on how the trials were scheduled.
//   neyman_allocation    -- split a campaign into strata (fault model,
//   combine_strata          injected-cell count, SPARTA phase, ...), pilot
//                           each stratum, then spend the remaining budget
//                           where the variance lives; combine per-stratum
//                           accumulators into one stratified estimate with
//                           a Welch-Satterthwaite confidence interval.
//
// Exhaustive runs remain the oracle: consumers keep their fixed-budget
// paths and the validation modes assert the exhaustive result lands inside
// the early-stopped CI at the configured confidence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace icsc::core::sampling {

/// One-pass Welford accumulator for mean and variance. Deterministic: the
/// state after pushing a sequence is a pure function of that sequence.
class OnlineStats {
public:
  void push(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Unbiased (n-1) sample variance; 0 below two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A point estimate with its two-sided confidence interval.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;  // infinity below two samples
  double stddev = 0.0;      // sample stddev
  std::size_t count = 0;
  double confidence = 0.0;

  double lo() const { return mean - half_width; }
  double hi() const { return mean + half_width; }
  bool contains(double v) const { return v >= lo() && v <= hi(); }
  /// Half-width relative to max(|mean|, floor): the convergence figure the
  /// stopping rule tests.
  double relative_half_width(double floor) const;
};

/// Student-t interval on the accumulator's mean.
Estimate mean_estimate(const OnlineStats& stats, double confidence);

/// Large-sample half-width on the accumulator's sample stddev:
/// z * s / sqrt(2 (n - 1)). Infinity below two samples.
double stddev_half_width(const OnlineStats& stats, double confidence);

/// Why a sequential campaign ended.
enum class StopReason : std::uint8_t {
  kNone = 0,    // still running
  kConverged,   // every tracked KPI met its CI target
  kBudget,      // trial budget exhausted before convergence
};

const char* stop_reason_name(StopReason reason);

/// Sequential early-stopping rule. Default-constructed config is disabled:
/// campaigns run their full fixed budget, bit-identical to the pre-sampling
/// code path.
struct EarlyStopConfig {
  bool enabled = false;
  /// Two-sided confidence level of the reported intervals and the stop test.
  double confidence = 0.95;
  /// Stop once every tracked KPI's CI half-width falls below
  /// relative_half_width * max(|mean|, absolute_floor).
  double relative_half_width = 0.05;
  /// Guards the relative test when a KPI's mean is (near) zero: below the
  /// floor the target becomes absolute (relative_half_width * floor).
  double absolute_floor = 1e-9;
  /// No stop decision before this many trials, however tight the CI.
  std::size_t min_trials = 16;
  /// The stop rule is evaluated at min_trials and every check_every trials
  /// after it (evaluating per-trial would bias the realized coverage low;
  /// checking in blocks also keeps the controller off the hot path).
  std::size_t check_every = 4;

  /// Throws core::Error on out-of-range parameters.
  void validate() const;
};

/// Outcome of one stop-rule evaluation.
struct StopDecision {
  bool stop = false;
  StopReason reason = StopReason::kNone;
};

/// Feeds per-trial KPI vectors in trial order and evaluates the stopping
/// rule at the configured check points. All state is a pure function of
/// the observed prefix.
class SequentialController {
public:
  /// `kpis` is the number of KPIs tracked per trial (>= 1). Validates the
  /// config (throws core::Error).
  SequentialController(const EarlyStopConfig& config, std::size_t kpis);

  /// Observes one trial's KPI values (size must match `kpis`; throws
  /// core::Error otherwise). Returns true when this trial triggers the
  /// stop rule; once triggered the controller stays stopped and further
  /// observations are rejected with core::Error (the campaign must not
  /// run past its own stop point).
  bool observe(std::span<const double> kpi_values);

  bool stopped() const { return stopped_; }
  /// Number of trials observed so far.
  std::size_t trials() const { return trials_; }
  std::size_t kpi_count() const { return kpis_.size(); }
  const OnlineStats& kpi(std::size_t i) const { return kpis_[i]; }
  /// Estimate (at the config's confidence) of KPI i.
  Estimate estimate(std::size_t i) const;
  /// True iff every tracked KPI currently meets its CI target (the raw
  /// convergence predicate, independent of min_trials/check_every gating).
  bool converged() const;

  const EarlyStopConfig& config() const { return config_; }

private:
  EarlyStopConfig config_;
  std::vector<OnlineStats> kpis_;
  std::size_t trials_ = 0;
  bool stopped_ = false;
};

/// Neyman allocation: distribute `budget` trials over strata proportionally
/// to weight_h * sigma_h (sampling where the variance lives), with at least
/// `min_per_stratum` trials each and the total summing to exactly `budget`
/// (largest-remainder rounding, ties broken by lower stratum index --
/// deterministic). When every sigma is zero the allocation falls back to
/// weight-proportional. Throws core::Error on empty/mismatched inputs,
/// non-positive weights, negative sigmas, or a budget below
/// strata * min_per_stratum.
std::vector<std::size_t> neyman_allocation(std::span<const double> weights,
                                           std::span<const double> sigmas,
                                           std::size_t budget,
                                           std::size_t min_per_stratum);

/// Combines per-stratum accumulators into the stratified population
/// estimate: mean = sum_h w_h * mean_h (weights normalized), with the
/// standard stratified variance sum_h w_h^2 s_h^2 / n_h and a
/// Welch-Satterthwaite effective-df Student-t interval. A stratum with
/// fewer than two samples makes the half-width infinite (its variance is
/// unknowable). Throws core::Error on empty/mismatched inputs or
/// non-positive weights.
Estimate combine_strata(std::span<const double> weights,
                        std::span<const OnlineStats> strata,
                        double confidence);

}  // namespace icsc::core::sampling
