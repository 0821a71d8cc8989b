// Program-and-verify schemes for analog NVM cells (Sec. IV).
//
// "In the ICSC Flagship 2 project, we developed high-precision
// program-and-verify algorithms [10] to counter these non-ideal device
// effects, while avoiding imprecise mapping of coefficients and consequent
// degradation of the DNN accuracy." Three schemes of increasing precision:
//   - kSinglePulse: open-loop, one pulse, no verify (the naive baseline),
//   - kFixedPulses: a fixed pulse count, no read-back,
//   - kVerify: closed-loop pulse/read iterations until the conductance is
//     within tolerance or the pulse budget is exhausted ([10]).
#pragma once

#include <cstdint>

#include "core/retry.hpp"
#include "imc/device.hpp"

namespace icsc::imc {

enum class ProgramScheme { kSinglePulse, kFixedPulses, kVerify };

struct ProgramVerifyConfig {
  ProgramScheme scheme = ProgramScheme::kVerify;
  int max_pulses = 20;
  int fixed_pulses = 4;           // for kFixedPulses
  double tolerance_rel = 0.01;    // |G - target| <= tolerance_rel * range

  /// Throws core::Error unless max_pulses and fixed_pulses are >= 1 and
  /// tolerance_rel is finite and >= 0.
  void validate() const;
};

/// Programs one cell to `target_us`; returns pulses spent.
int program_cell(MemoryCell& cell, const DeviceSpec& spec, core::Rng& rng,
                 double target_us, const ProgramVerifyConfig& config);

/// Bounded-retry re-programming on top of the base schemes: when the
/// read-back after a full programming round is still outside tolerance,
/// the round is repeated up to `max_retries` more times with the pulse
/// budget scaled by `backoff` each round (the escalating-budget backoff of
/// closed-loop P&V controllers). Stuck cells never verify, so the retry
/// layer is also what surfaces them as unrepairable. The loop shape is the
/// shared deterministic policy from core/retry.hpp; the per-round pulse
/// budgets follow RetryPolicy::escalate (cumulative ceil), bit-identical
/// to the original hand-rolled controller.
using RetryPolicy = core::RetryPolicy;

/// Most retry rounds a crossbar's repair policy may ask for.
inline constexpr int kMaxRepairRetries = 16;

/// Throws core::Error unless policy.max_retries is in [0,
/// kMaxRepairRetries], policy.backoff is finite and > 0, and every pulse
/// budget program_cell_retry escalates from `config` fits an int.
void validate_repair(const ProgramVerifyConfig& config,
                     const RetryPolicy& policy);

struct RepairOutcome {
  int pulses = 0;    // total pulses spent across all rounds
  int retries = 0;   // retry rounds consumed (0 = first round sufficed)
  bool verified = false;  // read-back within tolerance at the end
};

RepairOutcome program_cell_retry(MemoryCell& cell, const DeviceSpec& spec,
                                 core::Rng& rng, double target_us,
                                 const ProgramVerifyConfig& config,
                                 const RetryPolicy& policy);

/// Programming-accuracy statistics over a batch of random targets.
struct ProgramStats {
  double mean_abs_error_us = 0.0;
  double max_abs_error_us = 0.0;
  double mean_pulses = 0.0;
  double energy_pj = 0.0;
};

/// Programs `cells` fresh cells to uniformly random targets in the device
/// range and reports achieved accuracy (the Fig.-style P&V convergence
/// study of [10]). Throws core::Error when spec.validate() or
/// config.validate() does.
ProgramStats measure_programming(const DeviceSpec& spec,
                                 const ProgramVerifyConfig& config,
                                 int cells, std::uint64_t seed);

}  // namespace icsc::imc
