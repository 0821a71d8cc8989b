// Deterministic bounded-retry policy.
//
// Transient-failure loops recur across the framework: the IMC
// program-and-verify controller re-programs a cell with an escalating
// pulse budget (Sec. IV), the DNA pipeline puts starved strands back on
// the sequencer for another pass (Sec. VI), and fault campaigns re-issue
// work displaced by injected faults. This header centralizes the loop
// shape those call sites previously duplicated: bounded attempts and
// multiplicative (exponential) budget escalation. Nothing is drawn from a
// shared RNG, so retried runs stay bit-reproducible under the thread pool.
//
// Observability: every loop exports core/trace counters -- retry.attempts
// (each attempt), retry.retries (rounds after the first) and
// retry.give_ups (loops that exhausted their policy) -- so a retry storm
// shows up in the p99 aggregate table.
#pragma once

#include <cmath>

#include "core/trace.hpp"

namespace icsc::core {

/// Bounded-attempt policy with exponential budget escalation. `max_retries`
/// counts *extra* attempts after the first, so the default policy performs
/// exactly one attempt (every pre-existing call site's seed behaviour).
struct RetryPolicy {
  int max_retries = 0;   // retry rounds after the first attempt
  double backoff = 2.0;  // budget multiplier per retry round

  /// Escalates an integer budget by one backoff step with ceiling rounding
  /// -- the cumulative update rule of the IMC program-and-verify retry
  /// controller (applied once per retry round to the previous round's
  /// budget).
  int escalate(int budget) const {
    return static_cast<int>(std::ceil(budget * backoff));
  }
};

/// Outcome of a retry_until() loop.
struct RetryStats {
  int attempts = 0;    // total attempts performed (>= 1 unless max_retries < 0)
  int retries = 0;     // attempts - 1, capped at policy.max_retries
  bool succeeded = false;
};

/// Runs `attempt(retry)` -- retry 0 is the first try -- until it returns
/// true or the policy's attempts are exhausted. The attempt callback owns
/// any escalating state (e.g. a pulse budget updated via
/// RetryPolicy::escalate), which keeps refactored call sites bit-identical
/// to their original hand-rolled loops.
template <typename Fn>
RetryStats retry_until(const RetryPolicy& policy, Fn&& attempt) {
  RetryStats stats;
  for (int retry = 0; retry <= policy.max_retries; ++retry) {
    if (retry > 0) {
      ++stats.retries;
      ICSC_TRACE_COUNT("retry.retries", 1);
    }
    ++stats.attempts;
    ICSC_TRACE_COUNT("retry.attempts", 1);
    if (attempt(retry)) {
      stats.succeeded = true;
      break;
    }
  }
  if (!stats.succeeded) ICSC_TRACE_COUNT("retry.give_ups", 1);
  return stats;
}

}  // namespace icsc::core
