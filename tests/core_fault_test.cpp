#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace icsc::core {
namespace {

TEST(FaultHash, DeterministicAndSiteSensitive) {
  EXPECT_EQ(fault_hash(42, 7), fault_hash(42, 7));
  EXPECT_NE(fault_hash(42, 7), fault_hash(42, 8));
  EXPECT_NE(fault_hash(42, 7), fault_hash(43, 7));
  // Uniform values land in [0, 1).
  for (std::uint64_t s = 0; s < 1000; ++s) {
    const double u = fault_uniform(9, s);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(FaultHash, FiresAtExpectedRate) {
  const double rate = 0.1;
  std::size_t hits = 0;
  const std::size_t sites = 20000;
  for (std::uint64_t s = 0; s < sites; ++s) {
    hits += fault_fires(123, s, rate);
  }
  const double observed = static_cast<double>(hits) / sites;
  EXPECT_NEAR(observed, rate, 0.01);
  EXPECT_FALSE(fault_fires(1, 2, 0.0));
  EXPECT_TRUE(fault_fires(1, 2, 1.0));
}

TEST(FaultHash, FaultSetsAreNestedAcrossRates) {
  // Every site faulty at the low rate must stay faulty at any higher rate:
  // this is what makes degradation sweeps monotone by construction.
  for (std::uint64_t s = 0; s < 5000; ++s) {
    if (fault_fires(77, s, 0.02)) {
      EXPECT_TRUE(fault_fires(77, s, 0.05));
      EXPECT_TRUE(fault_fires(77, s, 0.5));
    }
  }
}

TEST(FaultInjector, DisabledByDefault) {
  const FaultInjector off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.at(3), FaultKind::kNone);
  EXPECT_FALSE(off.transient(3, 9));

  FaultConfig zero_rates;
  const FaultInjector zero(zero_rates);
  EXPECT_FALSE(zero.enabled());
  EXPECT_EQ(zero.at(3), FaultKind::kNone);
}

TEST(FaultInjector, OrderIndependentClassification) {
  FaultConfig config;
  config.stuck_at_rate = 0.05;
  config.drift_rate = 0.05;
  config.dropout_rate = 0.02;
  const FaultInjector injector(config, /*stream=*/3);

  const std::size_t sites = 2000;
  std::vector<FaultKind> forward(sites);
  for (std::size_t s = 0; s < sites; ++s) forward[s] = injector.at(s);

  std::vector<std::size_t> order(sites);
  for (std::size_t s = 0; s < sites; ++s) order[s] = s;
  std::mt19937_64 shuffle(99);
  std::shuffle(order.begin(), order.end(), shuffle);
  for (const std::size_t s : order) {
    EXPECT_EQ(injector.at(s), forward[s]) << "site " << s;
  }
}

TEST(FaultInjector, StreamsDecorrelate) {
  FaultConfig config;
  config.stuck_at_rate = 0.2;
  const FaultInjector a(config, 0);
  const FaultInjector b(config, 1);
  std::size_t differs = 0;
  for (std::uint64_t s = 0; s < 2000; ++s) {
    differs += a.at(s) != b.at(s);
  }
  EXPECT_GT(differs, 0u);
}

TEST(FaultInjector, KindsPartitionAndScaleWithRates) {
  FaultConfig config;
  config.stuck_at_rate = 0.1;
  config.drift_rate = 0.1;
  config.dropout_rate = 0.1;
  config.delay_rate = 0.1;
  const FaultInjector injector(config);
  std::size_t stuck = 0, drift = 0, dropout = 0, delay = 0, none = 0;
  const std::size_t sites = 20000;
  for (std::uint64_t s = 0; s < sites; ++s) {
    switch (injector.at(s)) {
      case FaultKind::kStuckAtLow:
      case FaultKind::kStuckAtHigh: ++stuck; break;
      case FaultKind::kDrift: ++drift; break;
      case FaultKind::kDropout: ++dropout; break;
      case FaultKind::kDelay: ++delay; break;
      default: ++none; break;
    }
  }
  const auto near = [&](std::size_t n) {
    return std::abs(static_cast<double>(n) / sites - 0.1) < 0.02;
  };
  EXPECT_TRUE(near(stuck));
  EXPECT_TRUE(near(drift));
  EXPECT_TRUE(near(dropout));
  EXPECT_TRUE(near(delay));
  EXPECT_NEAR(static_cast<double>(none) / sites, 0.6, 0.05);
}

TEST(FaultInjector, TransientIsPerOperation) {
  FaultConfig config;
  config.transient_rate = 0.05;
  const FaultInjector injector(config);
  std::size_t hits = 0;
  const std::uint64_t ops = 20000;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const bool fired = injector.transient(7, op);
    EXPECT_EQ(fired, injector.transient(7, op));  // deterministic
    hits += fired;
  }
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(ops), 0.05,
              0.01);
}

TEST(FaultInjector, SeverityIsStableAndBounded) {
  FaultConfig config;
  config.drift_rate = 1.0;
  const FaultInjector injector(config);
  for (std::uint64_t s = 0; s < 1000; ++s) {
    const double sev = injector.severity(s);
    EXPECT_GE(sev, 0.0);
    EXPECT_LT(sev, 1.0);
    EXPECT_EQ(sev, injector.severity(s));
  }
}

TEST(FaultKindName, CoversAllKinds) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kNone), "none");
  EXPECT_STREQ(fault_kind_name(FaultKind::kStuckAtLow), "stuck-at-low");
  EXPECT_STREQ(fault_kind_name(FaultKind::kStuckAtHigh), "stuck-at-high");
  EXPECT_STREQ(fault_kind_name(FaultKind::kTransientFlip), "transient-flip");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDrift), "drift");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDropout), "dropout");
  EXPECT_STREQ(fault_kind_name(FaultKind::kDelay), "delay");
}

TrialResult synthetic_trial(std::uint64_t seed, std::size_t index) {
  TrialResult r;
  r.metric = fault_uniform(seed, index);
  r.latency = static_cast<double>(index);
  r.faults_injected = fault_hash(seed, index) % 17;
  r.repairs = fault_hash(seed, index + 1) % 5;
  r.completed = (fault_hash(seed, index) & 7u) != 0;
  return r;
}

TEST(FaultCampaign, TrialSeedsAreDistinctAndStable) {
  const FaultCampaign campaign(2024, 64);
  for (std::size_t t = 0; t + 1 < campaign.trials(); ++t) {
    EXPECT_NE(campaign.trial_seed(t), campaign.trial_seed(t + 1));
    EXPECT_EQ(campaign.trial_seed(t), FaultCampaign(2024, 64).trial_seed(t));
  }
  // Different campaign seeds give different trial seeds.
  EXPECT_NE(FaultCampaign(1, 4).trial_seed(0),
            FaultCampaign(2, 4).trial_seed(0));
}

TEST(FaultCampaign, SerialAndParallelRunsAreBitIdentical) {
  const FaultCampaign campaign(0xF00D, 48);
  std::vector<TrialResult> serial;
  {
    ScopedSerial guard;
    serial = campaign.run(synthetic_trial);
  }
  const auto parallel = campaign.run(synthetic_trial);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(campaign_results_identical(serial, parallel));
}

TEST(FaultCampaign, SummarizeAggregates) {
  std::vector<TrialResult> results(4);
  results[0] = {1.0, 10.0, true, 2, 1};
  results[1] = {3.0, 20.0, true, 0, 0};
  results[2] = {2.0, 30.0, false, 5, 2};
  results[3] = {4.0, 40.0, true, 1, 1};
  const auto summary = FaultCampaign::summarize(results);
  EXPECT_EQ(summary.trials, 4u);
  EXPECT_DOUBLE_EQ(summary.mean_metric, 2.5);
  EXPECT_DOUBLE_EQ(summary.min_metric, 1.0);
  EXPECT_DOUBLE_EQ(summary.max_metric, 4.0);
  EXPECT_DOUBLE_EQ(summary.mean_latency, 25.0);
  EXPECT_DOUBLE_EQ(summary.completion_rate, 0.75);
  EXPECT_EQ(summary.total_faults, 8u);
  EXPECT_EQ(summary.total_repairs, 4u);
}

TEST(FaultCampaign, ResultsIdenticalIsExact) {
  std::vector<TrialResult> a(2), b(2);
  a[0].metric = b[0].metric = 0.5;
  a[1].repairs = b[1].repairs = 3;
  EXPECT_TRUE(campaign_results_identical(a, b));
  b[1].metric = 1e-300;  // any bit difference must be caught
  EXPECT_FALSE(campaign_results_identical(a, b));
  b.pop_back();
  EXPECT_FALSE(campaign_results_identical(a, b));
}

TEST(FaultCampaign, DefaultOptionsMatchThePlainRun) {
  const FaultCampaign campaign(0xC0FFEE, 24);
  const auto plain = campaign.run(synthetic_trial);
  const auto outcome = campaign.run(synthetic_trial, CampaignRunOptions{});
  EXPECT_TRUE(campaign_results_identical(outcome.results, plain));
}

// ---------------------------------------------------------------------------
// CI-driven early stopping.

sampling::EarlyStopConfig loose_stop() {
  // synthetic_trial's metric is uniform(0,1): cv ~ 0.58, so a 15% relative
  // target converges after a few dozen trials -- early for a 600 budget.
  sampling::EarlyStopConfig stop;
  stop.enabled = true;
  stop.confidence = 0.95;
  stop.relative_half_width = 0.15;
  stop.min_trials = 16;
  stop.check_every = 4;
  return stop;
}

TEST(FaultCampaignEarlyStop, ConvergesBeforeBudgetAndCoversOracle) {
  const FaultCampaign campaign(0xBEEF, 600);
  const auto oracle = campaign.run(synthetic_trial);
  const auto oracle_est = campaign_metric_estimate(oracle, 0.95);

  CampaignRunOptions options;
  options.early_stop = loose_stop();
  const auto outcome = campaign.run(synthetic_trial, options);
  EXPECT_TRUE(outcome.stopped_early);
  EXPECT_EQ(outcome.stop_reason, sampling::StopReason::kConverged);
  EXPECT_EQ(outcome.trials_budgeted, 600u);
  EXPECT_LT(outcome.trials_run(), 600u);
  EXPECT_GE(outcome.trials_run(), options.early_stop.min_trials);
  // The early-stopped prefix is a prefix of the oracle's trial stream.
  EXPECT_TRUE(campaign_results_identical(
      outcome.results,
      {oracle.begin(),
       oracle.begin() + static_cast<std::ptrdiff_t>(outcome.trials_run())}));
  EXPECT_TRUE(outcome.metric_estimate.contains(oracle_est.mean));
}

TEST(FaultCampaignEarlyStop, DeterministicAcrossRunsAndThreadCounts) {
  const FaultCampaign campaign(0xBEEF, 600);
  CampaignRunOptions options;
  options.early_stop = loose_stop();
  const auto a = campaign.run(synthetic_trial, options);
  CampaignRunOutcome b;
  {
    ScopedSerial guard;
    b = campaign.run(synthetic_trial, options);
  }
  EXPECT_EQ(a.trials_run(), b.trials_run());
  EXPECT_TRUE(campaign_results_identical(a.results, b.results));
  EXPECT_EQ(a.metric_estimate.mean, b.metric_estimate.mean);
  EXPECT_EQ(a.metric_estimate.half_width, b.metric_estimate.half_width);
}

TEST(FaultCampaignEarlyStop, BudgetExhaustionIsReported) {
  CampaignRunOptions options;
  options.early_stop = loose_stop();
  options.early_stop.relative_half_width = 1e-6;  // unreachable target
  const FaultCampaign campaign(0xBEEF, 32);
  const auto outcome = campaign.run(synthetic_trial, options);
  EXPECT_FALSE(outcome.stopped_early);
  EXPECT_EQ(outcome.stop_reason, sampling::StopReason::kBudget);
  EXPECT_EQ(outcome.trials_run(), 32u);
}

TEST(FaultCampaignEarlyStop, StopPointGolden) {
  // Pins the stop point and the bits of the reported estimate, inline and
  // on 4 threads. The stop rule fires only at its check points, so however
  // the campaign groups its trials into pool dispatches it must land here.
  struct Golden {
    bool track_latency;
    std::size_t trials_run;
    sampling::StopReason reason;
    std::uint64_t mean_bits;
    std::uint64_t half_width_bits;
  };
  const Golden goldens[] = {
      {false, 56, sampling::StopReason::kConverged, 0x3fde90ac4ab308dcULL,
       0x3fb15cc7e1a63f0eULL},
      {true, 64, sampling::StopReason::kConverged, 0x3fdcf0affae58f3bULL,
       0x3fb0d68340f1599fULL},
  };
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  const FaultCampaign campaign(0xBEEF, 600);
  for (const auto& golden : goldens) {
    SCOPED_TRACE(golden.track_latency ? "metric + latency" : "metric only");
    CampaignRunOptions options;
    options.early_stop = loose_stop();
    options.early_stop_track_latency = golden.track_latency;
    CampaignRunOutcome inline_run;
    {
      ScopedSerial guard;
      inline_run = campaign.run(synthetic_trial, options);
    }
    set_parallel_threads(4);
    CampaignRunOutcome pooled = campaign.run(synthetic_trial, options);
    set_parallel_threads(0);
    for (const auto* got : {&inline_run, &pooled}) {
      EXPECT_EQ(got->trials_run(), golden.trials_run);
      EXPECT_EQ(got->stop_reason, golden.reason);
      EXPECT_EQ(bits(got->metric_estimate.mean), golden.mean_bits);
      EXPECT_EQ(bits(got->metric_estimate.half_width), golden.half_width_bits);
    }
  }
}

TEST(FaultCampaignEarlyStop, LatencyTrackingDelaysTheStop) {
  // synthetic_trial's latency equals the trial index: relative half-width
  // of an arithmetic ramp converges much slower than the uniform metric,
  // so tracking it as a second KPI can only move the stop later.
  const FaultCampaign campaign(0xBEEF, 600);
  CampaignRunOptions metric_only;
  metric_only.early_stop = loose_stop();
  const auto fast = campaign.run(synthetic_trial, metric_only);
  CampaignRunOptions both = metric_only;
  both.early_stop_track_latency = true;
  const auto slow = campaign.run(synthetic_trial, both);
  EXPECT_GE(slow.trials_run(), fast.trials_run());
  EXPECT_GT(slow.latency_estimate.count, 0u);
}

TEST(CampaignEstimates, MatchDirectComputation) {
  std::vector<TrialResult> results(8);
  sampling::OnlineStats metric;
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].metric = static_cast<double>(i * i);
    results[i].latency = 1.0;
    metric.push(results[i].metric);
  }
  const auto est = campaign_metric_estimate(results, 0.95);
  const auto direct = sampling::mean_estimate(metric, 0.95);
  EXPECT_EQ(est.mean, direct.mean);
  EXPECT_EQ(est.half_width, direct.half_width);
  const auto lat = campaign_latency_estimate(results, 0.95);
  EXPECT_DOUBLE_EQ(lat.mean, 1.0);
  EXPECT_DOUBLE_EQ(lat.half_width, 0.0);
}

TEST(Error, FormatsWhereWhatContext) {
  const Error with_context("imc::Crossbar", "input length mismatch",
                           "got 3, expected 4");
  EXPECT_STREQ(with_context.what(),
               "imc::Crossbar: input length mismatch (got 3, expected 4)");
  EXPECT_EQ(with_context.where(), "imc::Crossbar");
  const Error bare("core::spmv", "vector length mismatch");
  EXPECT_STREQ(bare.what(), "core::spmv: vector length mismatch");
  // Error is a runtime_error: existing catch sites keep working.
  EXPECT_THROW(throw Error("a", "b"), std::runtime_error);
}

}  // namespace
}  // namespace icsc::core
