#include "core/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/trace.hpp"

namespace icsc::core::sampling {
namespace {

// ---------------------------------------------------------------------------
// OnlineStats: Welford vs the two-pass reference.

TEST(OnlineStats, MatchesTwoPassReference) {
  Rng rng(7);
  std::vector<double> samples;
  OnlineStats stats;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(3.0, 2.0) + rng.uniform(0.0, 0.01);
    samples.push_back(x);
    stats.push(x);
  }
  const double mean =
      std::accumulate(samples.begin(), samples.end(), 0.0) / samples.size();
  double ss = 0.0;
  for (const double x : samples) ss += (x - mean) * (x - mean);
  const double var = ss / (samples.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-9 * std::fabs(mean));
  EXPECT_NEAR(stats.variance(), var, 1e-9 * var);
  EXPECT_EQ(stats.count(), samples.size());
}

TEST(OnlineStats, DeterministicReplay) {
  // Same input order -> bit-identical state; this is what makes an
  // early-stopped campaign's estimates independent of the thread count.
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 257; ++i) samples.push_back(rng.normal(0.0, 1.0));
  OnlineStats a, b;
  for (const double x : samples) a.push(x);
  for (const double x : samples) b.push(x);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.push(4.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
}

TEST(MeanEstimate, InfiniteBelowTwoSamples) {
  OnlineStats stats;
  stats.push(1.0);
  const Estimate e = mean_estimate(stats, 0.95);
  EXPECT_TRUE(std::isinf(e.half_width));
  EXPECT_DOUBLE_EQ(e.mean, 1.0);
}

TEST(MeanEstimate, CoversTrueMeanAtRoughlyNominalRate) {
  // 200 repetitions of a 40-sample normal estimate: the 95% interval
  // should cover the true mean in far more than 85% of them (binomial
  // 3-sigma slack around 190/200).
  int covered = 0;
  const int kReps = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(1000 + rep);
    OnlineStats stats;
    for (int i = 0; i < 40; ++i) stats.push(rng.normal(5.0, 2.0));
    if (mean_estimate(stats, 0.95).contains(5.0)) ++covered;
  }
  EXPECT_GE(covered, 170);
}

TEST(MeanCi, KnownSmallSample) {
  // x = {1..5}: mean 3, sample stddev sqrt(2.5), t(4, .95) = 2.776.
  OnlineStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) stats.push(x);
  const Estimate e = mean_estimate(stats, 0.95);
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  EXPECT_NEAR(e.half_width, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-3);
  EXPECT_TRUE(e.contains(3.0));
  EXPECT_FALSE(e.contains(100.0));
}

TEST(StddevCi, CoversTrueSigma) {
  // The large-sample interval s +- stddev_half_width on 200-sample normal
  // estimates covers the true sigma at roughly the nominal 95 %.
  int covered = 0;
  const int kReps = 100;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(500 + rep);
    OnlineStats stats;
    for (int i = 0; i < 200; ++i) stats.push(rng.normal(0.0, 3.0));
    if (std::fabs(stats.stddev() - 3.0) <= stddev_half_width(stats, 0.95)) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 85);
}

// ---------------------------------------------------------------------------
// SequentialController: the stop decision is a pure prefix function.

EarlyStopConfig test_config() {
  EarlyStopConfig config;
  config.enabled = true;
  config.confidence = 0.95;
  config.relative_half_width = 0.05;
  config.min_trials = 16;
  config.check_every = 4;
  return config;
}

std::vector<double> kpi_stream(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(rng.normal(10.0, 1.0));
  return v;
}

TEST(SequentialController, StopsAndPrefixReplayIsIdentical) {
  const auto stream = kpi_stream(4000, 3);
  SequentialController full(test_config(), 1);
  std::size_t stop_at = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (full.observe(std::span<const double>(&stream[i], 1))) {
      stop_at = i + 1;
      break;
    }
  }
  ASSERT_GT(stop_at, 0u) << "stream never converged";
  ASSERT_LT(stop_at, stream.size());

  // Replay only the stopped prefix through a fresh controller: identical
  // stop point, bit-identical estimate.
  SequentialController replay(test_config(), 1);
  for (std::size_t i = 0; i < stop_at; ++i) {
    const bool stopped = replay.observe(std::span<const double>(&stream[i], 1));
    EXPECT_EQ(stopped, i + 1 == stop_at);
  }
  EXPECT_TRUE(replay.stopped());
  EXPECT_EQ(replay.trials(), full.trials());
  EXPECT_EQ(replay.estimate(0).mean, full.estimate(0).mean);
  EXPECT_EQ(replay.estimate(0).half_width, full.estimate(0).half_width);
}

TEST(SequentialController, StopOnlyAtCheckpoints) {
  // A zero-variance stream converges immediately, but the stop must wait
  // for min_trials.
  EarlyStopConfig config = test_config();
  config.min_trials = 10;
  SequentialController controller(config, 1);
  const double x = 42.0;
  for (int i = 0; i < 9; ++i) {
    EXPECT_FALSE(controller.observe(std::span<const double>(&x, 1)));
  }
  EXPECT_TRUE(controller.observe(std::span<const double>(&x, 1)));
  EXPECT_EQ(controller.trials(), 10u);
}

TEST(SequentialController, RejectsObserveAfterStopAndBadArity) {
  EarlyStopConfig config = test_config();
  config.min_trials = 4;
  SequentialController controller(config, 1);
  const double x = 1.0;
  for (int i = 0; i < 4; ++i) {
    controller.observe(std::span<const double>(&x, 1));
  }
  ASSERT_TRUE(controller.stopped());
  EXPECT_THROW(controller.observe(std::span<const double>(&x, 1)), Error);

  SequentialController two(test_config(), 2);
  EXPECT_THROW(two.observe(std::span<const double>(&x, 1)), Error);
}

TEST(SequentialController, AllKpisMustConverge) {
  // KPI 0 is constant (converges instantly); KPI 1 is noisy enough that a
  // tight target keeps the controller running the whole stream.
  EarlyStopConfig config = test_config();
  config.relative_half_width = 0.001;
  SequentialController controller(config, 2);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double kpi[2] = {1.0, rng.normal(10.0, 5.0)};
    EXPECT_FALSE(controller.observe(kpi));
  }
  EXPECT_FALSE(controller.stopped());
}

TEST(EarlyStopConfig, ValidateRejectsDegenerateParameters) {
  EarlyStopConfig config = test_config();
  config.confidence = 1.0;
  EXPECT_THROW(config.validate(), Error);
  config = test_config();
  config.relative_half_width = 0.0;
  EXPECT_THROW(config.validate(), Error);
  config = test_config();
  config.min_trials = 1;
  EXPECT_THROW(config.validate(), Error);
  config = test_config();
  config.check_every = 0;
  EXPECT_THROW(config.validate(), Error);
  config = test_config();
  config.absolute_floor = -1.0;
  EXPECT_THROW(config.validate(), Error);
}

// ---------------------------------------------------------------------------
// Neyman allocation.

TEST(NeymanAllocation, SumsToBudgetAndFollowsVariance) {
  const std::vector<double> weights{0.25, 0.25, 0.25, 0.25};
  const std::vector<double> sigmas{1.0, 1.0, 8.0, 1.0};
  const auto alloc = neyman_allocation(weights, sigmas, 110, 2);
  EXPECT_EQ(std::accumulate(alloc.begin(), alloc.end(), std::size_t{0}),
            110u);
  // The high-variance stratum gets the lion's share.
  EXPECT_GT(alloc[2], alloc[0] + alloc[1] + alloc[3]);
  for (const std::size_t n : alloc) EXPECT_GE(n, 2u);
}

TEST(NeymanAllocation, ZeroSigmasFallBackToWeights) {
  const std::vector<double> weights{0.5, 0.3, 0.2};
  const std::vector<double> sigmas{0.0, 0.0, 0.0};
  const auto alloc = neyman_allocation(weights, sigmas, 100, 1);
  EXPECT_EQ(alloc[0], 50u);
  EXPECT_EQ(alloc[1], 30u);
  EXPECT_EQ(alloc[2], 20u);
}

TEST(NeymanAllocation, DeterministicUnderTies) {
  const std::vector<double> weights{1.0, 1.0, 1.0};
  const std::vector<double> sigmas{1.0, 1.0, 1.0};
  // 10 over 3 equal strata: the leftover trial must go to a deterministic
  // stratum (lowest index by the tie rule).
  const auto a = neyman_allocation(weights, sigmas, 10, 1);
  const auto b = neyman_allocation(weights, sigmas, 10, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::accumulate(a.begin(), a.end(), std::size_t{0}), 10u);
  EXPECT_GE(a[0], a[1]);
  EXPECT_GE(a[1], a[2]);
}

TEST(NeymanAllocation, RejectsBadInputs) {
  const std::vector<double> weights{0.5, 0.5};
  const std::vector<double> sigmas{1.0, 1.0};
  EXPECT_THROW(neyman_allocation({}, {}, 10, 1), Error);
  EXPECT_THROW(
      neyman_allocation(weights, std::vector<double>{1.0}, 10, 1), Error);
  EXPECT_THROW(
      neyman_allocation(std::vector<double>{0.5, -0.5}, sigmas, 10, 1),
      Error);
  EXPECT_THROW(
      neyman_allocation(weights, std::vector<double>{1.0, -1.0}, 10, 1),
      Error);
  EXPECT_THROW(neyman_allocation(weights, sigmas, 3, 2), Error);
}

// ---------------------------------------------------------------------------
// Stratified combination.

TEST(CombineStrata, SingleStratumMatchesMeanEstimate) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50; ++i) stats.push(rng.normal(2.0, 0.5));
  const std::vector<double> weights{1.0};
  const std::vector<OnlineStats> strata{stats};
  const Estimate combined = combine_strata(weights, strata, 0.95);
  const Estimate direct = mean_estimate(stats, 0.95);
  EXPECT_NEAR(combined.mean, direct.mean, 1e-12);
  // df differs only through rounding of Welch-Satterthwaite; widths agree
  // closely for one stratum.
  EXPECT_NEAR(combined.half_width, direct.half_width,
              0.05 * direct.half_width);
}

TEST(CombineStrata, WeightsAreNormalized) {
  OnlineStats a, b;
  for (int i = 0; i < 10; ++i) {
    a.push(1.0 + 0.01 * i);
    b.push(3.0 + 0.01 * i);
  }
  const std::vector<OnlineStats> strata{a, b};
  const Estimate e1 =
      combine_strata(std::vector<double>{1.0, 3.0}, strata, 0.95);
  const Estimate e2 =
      combine_strata(std::vector<double>{0.25, 0.75}, strata, 0.95);
  EXPECT_NEAR(e1.mean, e2.mean, 1e-12);
  EXPECT_NEAR(e1.half_width, e2.half_width, 1e-12);
}

TEST(CombineStrata, TinyStratumMakesWidthInfinite) {
  OnlineStats a, b;
  for (int i = 0; i < 10; ++i) a.push(static_cast<double>(i));
  b.push(5.0);  // one sample: variance unknowable
  const std::vector<OnlineStats> strata{a, b};
  const Estimate e =
      combine_strata(std::vector<double>{0.5, 0.5}, strata, 0.95);
  EXPECT_TRUE(std::isinf(e.half_width));
}

TEST(CombineStrata, StratifiedCoversPopulationMean) {
  // Population: 70% N(1, 0.2), 30% N(5, 2). Stratified estimate from
  // modest per-stratum samples should cover the true mean 0.7*1 + 0.3*5.
  int covered = 0;
  const int kReps = 100;
  for (int rep = 0; rep < kReps; ++rep) {
    Rng rng(200 + rep);
    OnlineStats low, high;
    for (int i = 0; i < 30; ++i) low.push(rng.normal(1.0, 0.2));
    for (int i = 0; i < 30; ++i) high.push(rng.normal(5.0, 2.0));
    const std::vector<OnlineStats> strata{low, high};
    const Estimate e =
        combine_strata(std::vector<double>{0.7, 0.3}, strata, 0.95);
    if (e.contains(0.7 * 1.0 + 0.3 * 5.0)) ++covered;
  }
  EXPECT_GE(covered, 85);
}

TEST(CombineStrata, RejectsBadInputs) {
  const std::vector<OnlineStats> strata(2);
  EXPECT_THROW(combine_strata({}, {}, 0.95), Error);
  EXPECT_THROW(combine_strata(std::vector<double>{1.0}, strata, 0.95), Error);
  EXPECT_THROW(
      combine_strata(std::vector<double>{1.0, 0.0}, strata, 0.95), Error);
}

TEST(TraceCounters, StratifiedHelpersPublishSamplingCounters) {
  trace::reset();
  trace::set_enabled(true);
  const std::vector<double> weights{0.6, 0.4};
  const std::vector<double> sigmas{1.0, 2.0};
  (void)neyman_allocation(weights, sigmas, 20, 2);
  OnlineStats a, b;
  for (int i = 0; i < 4; ++i) {
    a.push(1.0 + i);
    b.push(2.0 * i);
  }
  const std::vector<OnlineStats> strata{a, b};
  (void)combine_strata(weights, strata, 0.95);
  const auto counters = trace::counters();
  trace::set_enabled(false);
  trace::reset();
  ASSERT_EQ(counters.count("sampling.strata.allocated"), 1u);
  EXPECT_EQ(counters.at("sampling.strata.allocated"), 2u);
  ASSERT_EQ(counters.count("sampling.strata.combined"), 1u);
  EXPECT_EQ(counters.at("sampling.strata.combined"), 2u);
}

}  // namespace
}  // namespace icsc::core::sampling
