#include "core/retry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/trace.hpp"

namespace icsc::core {
namespace {

TEST(RetryPolicy, DefaultPolicyIsExactlyOneAttempt) {
  const RetryPolicy policy;
  int calls = 0;
  const auto stats = retry_until(policy, [&](int retry) {
    EXPECT_EQ(retry, 0);
    ++calls;
    return false;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_FALSE(stats.succeeded);
}

TEST(RetryPolicy, ExhaustedRetriesReportEveryAttempt) {
  RetryPolicy policy;
  policy.max_retries = 3;
  std::vector<int> seen;
  const auto stats = retry_until(policy, [&](int retry) {
    seen.push_back(retry);
    return false;
  });
  EXPECT_EQ(seen, std::vector<int>({0, 1, 2, 3}));
  EXPECT_EQ(stats.attempts, 4);
  EXPECT_EQ(stats.retries, 3);
  EXPECT_FALSE(stats.succeeded);
}

TEST(RetryPolicy, StopsOnFirstSuccess) {
  RetryPolicy policy;
  policy.max_retries = 5;
  int calls = 0;
  const auto stats = retry_until(policy, [&](int retry) {
    ++calls;
    return retry == 2;
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_TRUE(stats.succeeded);
}

TEST(RetryPolicy, ImmediateSuccessNeedsNoRetries) {
  RetryPolicy policy;
  policy.max_retries = 5;
  const auto stats = retry_until(policy, [](int) { return true; });
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_TRUE(stats.succeeded);
}

TEST(RetryPolicy, EscalateMatchesTheHandRolledCumulativeLoop) {
  // The IMC program-and-verify controller used to escalate its pulse budget
  // as `budget = ceil(budget * backoff)` once per retry round. escalate()
  // applied cumulatively must reproduce that sequence bit-for-bit.
  RetryPolicy policy;
  policy.backoff = 1.5;
  int budget = 8;
  std::vector<int> escalated;
  for (int round = 0; round < 4; ++round) {
    budget = policy.escalate(budget);
    escalated.push_back(budget);
  }
  EXPECT_EQ(escalated, std::vector<int>({12, 18, 27, 41}));

  int reference = 8;
  int chained = 8;
  for (int round = 0; round < 6; ++round) {
    reference = static_cast<int>(std::ceil(reference * 1.5));
    chained = policy.escalate(chained);
    EXPECT_EQ(chained, reference);
  }
}

TEST(RetryPolicy, NegativeMaxRetriesMeansZeroAttempts) {
  RetryPolicy policy;
  policy.max_retries = -1;
  int calls = 0;
  const auto stats = retry_until(policy, [&](int) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(stats.attempts, 0);
  EXPECT_FALSE(stats.succeeded);
}

TEST(RetryObservability, AttemptAndGiveUpCountersExport) {
  // The loop exports its accounting through core/trace, so a retry storm
  // is visible in the aggregate table without touching the per-call
  // RetryStats.
  trace::set_enabled(true);
  trace::reset();
  RetryPolicy policy;
  policy.max_retries = 2;
  // Succeeding loop: 2 attempts, 1 retry, no give-up.
  retry_until(policy, [](int retry) { return retry == 1; });
  // Exhausting loop: 3 attempts, 2 retries, one give-up.
  retry_until(policy, [](int) { return false; });
  const auto counters = trace::counters();
  trace::set_enabled(false);
  trace::reset();
  ASSERT_NE(counters.find("retry.attempts"), counters.end());
  EXPECT_EQ(counters.at("retry.attempts"), 5u);
  EXPECT_EQ(counters.at("retry.retries"), 3u);
  ASSERT_NE(counters.find("retry.give_ups"), counters.end());
  EXPECT_EQ(counters.at("retry.give_ups"), 1u);
}

}  // namespace
}  // namespace icsc::core
