#include "imc/program_verify.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

#include "core/error.hpp"
#include "core/trace.hpp"

namespace icsc::imc {

void ProgramVerifyConfig::validate() const {
  const std::string where = "imc::ProgramVerifyConfig";
  core::require_at_least(where, "max_pulses", max_pulses, 1);
  core::require_at_least(where, "fixed_pulses", fixed_pulses, 1);
  core::require_at_least(where, "tolerance_rel", tolerance_rel, 0.0);
}

void validate_repair(const ProgramVerifyConfig& config,
                     const RetryPolicy& policy) {
  const std::string where = "imc::RetryPolicy (repair)";
  if (policy.max_retries < 0 || policy.max_retries > kMaxRepairRetries) {
    throw core::Error(where,
                      "max_retries must be in [0, " +
                          std::to_string(kMaxRepairRetries) + "]",
                      "got " + std::to_string(policy.max_retries));
  }
  core::require_positive(where, "backoff", policy.backoff);
  // program_cell_retry escalates both budgets every retry round, whatever
  // the scheme; RetryPolicy::escalate casts each to int.
  for (double budget : {static_cast<double>(config.max_pulses),
                        static_cast<double>(config.fixed_pulses)}) {
    for (int r = 0; r < policy.max_retries; ++r) {
      budget = std::ceil(budget * policy.backoff);
      if (budget > INT_MAX) {
        throw core::Error(where, "escalated pulse budget overflows int",
                          "round " + std::to_string(r + 1) + " of " +
                              std::to_string(policy.max_retries));
      }
    }
  }
}

int program_cell(MemoryCell& cell, const DeviceSpec& spec, core::Rng& rng,
                 double target_us, const ProgramVerifyConfig& config) {
  const int before = cell.pulses_used();
  switch (config.scheme) {
    case ProgramScheme::kSinglePulse:
      cell.program_pulse(spec, rng, target_us);
      break;
    case ProgramScheme::kFixedPulses:
      for (int p = 0; p < config.fixed_pulses; ++p) {
        cell.program_pulse(spec, rng, target_us);
      }
      break;
    case ProgramScheme::kVerify: {
      for (int p = 0; p < config.max_pulses; ++p) {
        cell.program_pulse(spec, rng, target_us);
        // Verify step: read back immediately (t ~ 1 s, no drift yet).
        const double readback = cell.raw_conductance();
        if (std::abs(readback - target_us) <=
            config.tolerance_rel * spec.g_range()) {
          break;
        }
      }
      break;
    }
  }
  return cell.pulses_used() - before;
}

RepairOutcome program_cell_retry(MemoryCell& cell, const DeviceSpec& spec,
                                 core::Rng& rng, double target_us,
                                 const ProgramVerifyConfig& config,
                                 const RetryPolicy& policy) {
  // No span here: one call per cell is far below useful span granularity
  // (the array-level span lives in Crossbar's constructor); the counters
  // below are cheap per-thread cells.
  RepairOutcome outcome;
  const auto within_tolerance = [&] {
    return std::abs(cell.raw_conductance() - target_us) <=
           config.tolerance_rel * spec.g_range();
  };
  // The escalating pulse budget is cumulative: each retry round scales the
  // *previous* round's budget via policy.escalate, reproducing the original
  // hand-rolled controller bit-for-bit.
  ProgramVerifyConfig round = config;
  const auto stats = core::retry_until(policy, [&](int retry) {
    if (retry > 0) {
      round.max_pulses = policy.escalate(round.max_pulses);
      round.fixed_pulses = policy.escalate(round.fixed_pulses);
    }
    outcome.pulses += program_cell(cell, spec, rng, target_us, round);
    return within_tolerance();
  });
  outcome.retries = stats.retries;
  outcome.verified = stats.succeeded;
  ICSC_TRACE_COUNT("imc.program_pulses",
                   static_cast<std::uint64_t>(outcome.pulses));
  ICSC_TRACE_COUNT("imc.program_retries",
                   static_cast<std::uint64_t>(outcome.retries));
  if (!outcome.verified) ICSC_TRACE_COUNT("imc.program_failures", 1);
  return outcome;
}

ProgramStats measure_programming(const DeviceSpec& spec,
                                 const ProgramVerifyConfig& config,
                                 int cells, std::uint64_t seed) {
  spec.validate();
  config.validate();
  core::Rng rng(seed);
  ProgramStats stats;
  for (int i = 0; i < cells; ++i) {
    MemoryCell cell(spec, rng);
    const double target = rng.uniform(spec.g_min_us, spec.g_max_us);
    const int pulses = program_cell(cell, spec, rng, target, config);
    const double error = std::abs(cell.raw_conductance() - target);
    stats.mean_abs_error_us += error;
    stats.max_abs_error_us = std::max(stats.max_abs_error_us, error);
    stats.mean_pulses += pulses;
    stats.energy_pj += pulses * spec.program_energy_pj;
  }
  if (cells > 0) {
    stats.mean_abs_error_us /= cells;
    stats.mean_pulses /= cells;
  }
  return stats;
}

}  // namespace icsc::imc
