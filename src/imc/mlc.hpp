// Multilevel-cell level estimation and digital drift compensation
// (Sec. IV).
//
// "Multilevel cell (MLC) operation is possible in both PCM and RRAM where
// the device resistance can be tuned as an analog memory with a virtually
// continuous distribution of weights [9]" -- but finite programming
// precision limits the usable level count, which reliable_levels()
// estimates per programming scheme. Accuracy should also be optimised by
// "accurate digital compensation of inaccuracies, such as drift and
// temperature/voltage dependence": we implement the standard global-scale
// drift compensation, where the periphery rescales MVM outputs by the
// inverse of the average conductance decay estimated from reference cells.
#pragma once

#include <cstdint>
#include <vector>

#include "imc/crossbar.hpp"

namespace icsc::imc {

/// The effective number of reliably distinguishable levels for a device
/// programmed with the given scheme: levels are "reliable" when the
/// programming error's 3-sigma is below half the level spacing.
int reliable_levels(const DeviceSpec& spec, const ProgramVerifyConfig& config,
                    int probe_cells, std::uint64_t seed);

/// Digital drift compensation: reference column. A set of reference cells
/// is programmed to a known conductance at t=0; at read time the periphery
/// measures their average decay and multiplies MVM outputs by the inverse.
/// Removes the *mean* drift (the D2D nu spread remains).
class DriftCompensator {
public:
  DriftCompensator(const DeviceSpec& spec, const ProgramVerifyConfig& pv,
                   int reference_cells, std::uint64_t seed);

  /// Estimated mean decay factor G(t)/G(0) from the reference cells.
  double decay_estimate(double t_seconds);

  /// Applies the inverse decay to an MVM output vector in place.
  void compensate(std::vector<float>& y, double t_seconds);

private:
  DeviceSpec spec_;
  core::Rng rng_;
  std::vector<MemoryCell> reference_;
  std::vector<double> programmed_;  // as-verified conductances
};

/// Accuracy experiment with compensation on/off (the Sec. IV digital
/// compensation ablation): PCM crossbars at time t.
struct CompensationResult {
  double accuracy_uncompensated = 0.0;
  double accuracy_compensated = 0.0;
  double decay_estimate = 0.0;
};

CompensationResult run_drift_compensation_experiment(double t_seconds,
                                                     std::uint64_t seed);

}  // namespace icsc::imc
