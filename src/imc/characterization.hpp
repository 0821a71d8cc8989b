// Device characterisation from simulated measurements (Sec. IV).
//
// Mirrors the experimental methodology of the device papers ([9], [10]):
// program a population of cells, read them over log-spaced retention times,
// and extract the drift exponent nu from the log-log slope; program with
// each scheme and extract the error distribution. These routines close the
// loop between the device model and the parameters the architecture layers
// consume -- and the tests verify the extraction recovers the ground-truth
// model parameters. Every study throws core::Error when the DeviceSpec (or
// ProgramVerifyConfig) it is given fails validate().
#pragma once

#include <cstdint>
#include <vector>

#include "core/sampling.hpp"
#include "core/stats.hpp"
#include "imc/program_verify.hpp"

namespace icsc::imc {

/// Drift characterisation: mean drift exponent fitted on the population's
/// average conductance trace, plus the device-to-device spread of
/// per-cell exponents.
struct DriftCharacterization {
  double fitted_nu = 0.0;
  double nu_spread = 0.0;     // stddev across cells
  double fit_r_squared = 0.0;
};

DriftCharacterization characterize_drift(const DeviceSpec& spec, int cells,
                                         int time_points,
                                         std::uint64_t seed);

/// Programming-error distribution at a fixed target (as device papers
/// report): summary of (G_achieved - target) across the population.
core::Summary characterize_programming_error(const DeviceSpec& spec,
                                             const ProgramVerifyConfig& config,
                                             double target_us, int cells,
                                             std::uint64_t seed);

/// Read-noise characterisation: relative sigma extracted from repeated
/// reads of one programmed cell.
double characterize_read_noise(const DeviceSpec& spec, int reads,
                               std::uint64_t seed);

// ---------------------------------------------------------------------------
// Sequential (CI-driven) device Monte-Carlo: the same characterisation
// studies with an early-stopping budget instead of a fixed population.
// Cell i draws from its own hash-derived RNG stream, so the measurement
// sequence is a deterministic trial stream: an early-stopped run is a
// bit-identical prefix of the exhaustive run at the same seed, which is
// what lets the validation mode assert the exhaustive oracle lands inside
// the early-stopped confidence interval.

/// Outcome of a sequential characterisation study.
struct SequentialCharacterization {
  /// Mean +- CI of the tracked figure (|G error| in uS for programming
  /// error, relative sigma for read noise).
  core::sampling::Estimate estimate;
  std::size_t samples_run = 0;
  std::size_t samples_budgeted = 0;
  bool stopped_early = false;
  core::sampling::StopReason stop_reason = core::sampling::StopReason::kNone;

  double saved_factor() const {
    return samples_run > 0 ? static_cast<double>(samples_budgeted) /
                                 static_cast<double>(samples_run)
                           : 1.0;
  }
};

/// Sequential programming-error study: tracks mean |G_achieved - target|
/// over hash-seeded cells and stops once its CI meets `config`'s target.
/// `budget` caps the population; early_stop disabled runs the whole budget
/// (the exhaustive oracle for the same trial stream).
SequentialCharacterization characterize_programming_error_sequential(
    const DeviceSpec& spec, const ProgramVerifyConfig& program_config,
    double target_us, int budget, std::uint64_t seed,
    const core::sampling::EarlyStopConfig& early_stop);

/// Sequential read-noise study: tracks the per-read relative deviation
/// from the drift-corrected conductance and stops once the CI on the
/// noise sigma (large-sample stddev interval) meets the target.
SequentialCharacterization characterize_read_noise_sequential(
    const DeviceSpec& spec, int budget, std::uint64_t seed,
    const core::sampling::EarlyStopConfig& early_stop);

}  // namespace icsc::imc
