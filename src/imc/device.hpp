// Emerging-NVM and SRAM device models for in-memory computing (Sec. IV).
//
// "Both PCM and RRAM devices are characterized by non-ideal behavior in
// terms of variability, drift, and noise issues which severely limit the
// device performance." The device model captures exactly those three
// effects at the level the architecture experiments need:
//   - programming variability: each SET/RESET pulse lands with noise,
//   - conductance drift: G(t) = G0 * (t/t0)^-nu (strong for PCM, weak for
//     RRAM),
//   - read noise: multiplicative 1/f-like noise per read.
// Parameter values follow the characterisation literature ([7], [9], [10]).
#pragma once

#include <string>

#include "core/rng.hpp"

namespace icsc::imc {

struct DeviceSpec {
  std::string name;
  double g_min_us = 1.0;    // minimum programmable conductance (microsiemens)
  double g_max_us = 100.0;  // maximum programmable conductance
  /// Relative std-dev of the landing error of one program pulse (scales
  /// with the pulse amplitude; a small cell-intrinsic floor is added).
  double program_sigma_rel = 0.05;
  /// Fraction of the remaining target error corrected per pulse.
  double program_gain = 0.5;
  /// Relative std-dev of read noise (1/f + thermal).
  double read_noise_rel = 0.01;
  /// Drift exponent nu: G(t) = G(t0) * (t/t0)^-nu, t0 = 1 s.
  double drift_nu = 0.0;
  /// Device-to-device spread of the drift exponent.
  double drift_nu_sigma = 0.0;
  /// Energies (pJ): one program pulse, one cell-read (column share of MVM).
  double program_energy_pj = 10.0;
  double read_energy_pj = 0.001;

  double g_range() const { return g_max_us - g_min_us; }

  /// Throws core::Error unless every numeric field is finite, g_min_us >=
  /// 0, g_max_us > g_min_us, and the sigmas, the gain and the energies are
  /// >= 0 (drift_nu may take either sign).
  void validate() const;
};

/// RRAM: moderate programming noise, negligible drift ([10]).
DeviceSpec rram_spec();

/// PCM: multilevel-friendly but with pronounced conductance drift ([9]).
DeviceSpec pcm_spec();

/// A single programmable analog memory cell. Pure state: the owning array
/// supplies its DeviceSpec and RNG on every operation, so cells stay
/// trivially movable/copyable (no back-pointers).
class MemoryCell {
public:
  MemoryCell() = default;

  /// Fresh cell at minimum conductance; draws its device-to-device drift
  /// exponent from `rng`.
  MemoryCell(const DeviceSpec& spec, core::Rng& rng);

  /// One program pulse toward `target_us`: moves a fraction program_gain of
  /// the remaining error, with landing noise; clamps to [g_min, g_max].
  void program_pulse(const DeviceSpec& spec, core::Rng& rng, double target_us);

  /// Conductance at time `t_seconds` after programming, with drift applied
  /// (no read noise; deterministic part of a read).
  double conductance_at(double t_seconds) const;

  /// Noisy read at time t: drifted conductance plus multiplicative noise.
  double read(const DeviceSpec& spec, core::Rng& rng, double t_seconds) const;

  double raw_conductance() const { return g_us_; }
  double drift_nu() const { return drift_nu_; }
  int pulses_used() const { return pulses_; }

private:
  double g_us_ = 0.0;
  double drift_nu_ = 0.0;  // per-device drift exponent (D2D spread)
  int pulses_ = 0;
};

}  // namespace icsc::imc
