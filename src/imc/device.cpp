#include "imc/device.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace icsc::imc {

void DeviceSpec::validate() const {
  const std::string where = "imc::DeviceSpec";
  core::require_at_least(where, "g_min_us", g_min_us, 0.0);
  if (!std::isfinite(g_max_us) || !(g_max_us > g_min_us)) {
    throw core::Error(where, "g_max_us must be finite and > g_min_us",
                      "got " + std::to_string(g_max_us) + " <= " +
                          std::to_string(g_min_us));
  }
  core::require_at_least(where, "program_sigma_rel", program_sigma_rel, 0.0);
  core::require_at_least(where, "program_gain", program_gain, 0.0);
  core::require_at_least(where, "read_noise_rel", read_noise_rel, 0.0);
  if (!std::isfinite(drift_nu)) {
    throw core::Error(where, "drift_nu must be finite",
                      "got " + std::to_string(drift_nu));
  }
  core::require_at_least(where, "drift_nu_sigma", drift_nu_sigma, 0.0);
  core::require_at_least(where, "program_energy_pj", program_energy_pj, 0.0);
  core::require_at_least(where, "read_energy_pj", read_energy_pj, 0.0);
}

DeviceSpec rram_spec() {
  DeviceSpec spec;
  spec.name = "RRAM (HfO2-class 1T1R)";
  spec.g_min_us = 2.0;
  spec.g_max_us = 150.0;
  spec.program_sigma_rel = 0.04;
  spec.program_gain = 0.55;
  spec.read_noise_rel = 0.01;
  spec.drift_nu = 0.002;  // RRAM retention loss is mild
  spec.drift_nu_sigma = 0.001;
  spec.program_energy_pj = 12.0;
  spec.read_energy_pj = 0.0008;
  return spec;
}

DeviceSpec pcm_spec() {
  DeviceSpec spec;
  spec.name = "PCM (GST mushroom)";
  spec.g_min_us = 0.5;
  spec.g_max_us = 60.0;
  spec.program_sigma_rel = 0.03;
  spec.program_gain = 0.5;
  spec.read_noise_rel = 0.015;
  spec.drift_nu = 0.05;  // pronounced amorphous-phase drift
  spec.drift_nu_sigma = 0.015;
  spec.program_energy_pj = 25.0;
  spec.read_energy_pj = 0.0012;
  return spec;
}

MemoryCell::MemoryCell(const DeviceSpec& spec, core::Rng& rng)
    : g_us_(spec.g_min_us) {
  drift_nu_ = std::max(0.0, rng.normal(spec.drift_nu, spec.drift_nu_sigma));
}

void MemoryCell::program_pulse(const DeviceSpec& spec, core::Rng& rng,
                               double target_us) {
  const double error = target_us - g_us_;
  const double step = spec.program_gain * error;
  // Landing noise scales with the pulse amplitude (amplitude-modulated
  // pulse trains) plus a small cell-intrinsic floor.
  const double sigma =
      spec.program_sigma_rel * std::abs(step) + 0.003 * spec.g_range();
  const double noise = rng.normal(0.0, sigma);
  g_us_ = std::clamp(g_us_ + step + noise, spec.g_min_us, spec.g_max_us);
  ++pulses_;
}

double MemoryCell::conductance_at(double t_seconds) const {
  if (drift_nu_ <= 0.0 || t_seconds <= 1.0) return g_us_;
  // Drift reference time t0 = 1 s (conductance as-verified).
  return g_us_ * std::pow(t_seconds, -drift_nu_);
}

double MemoryCell::read(const DeviceSpec& spec, core::Rng& rng,
                        double t_seconds) const {
  const double g = conductance_at(t_seconds);
  // Noiseless devices skip the draw entirely: sigma = 0 contributes an
  // exact 0.0 either way, so only the RNG stream position differs, and
  // ideal-device sweeps stop paying Box-Muller on every read.
  if (spec.read_noise_rel <= 0.0) return g;
  return g * (1.0 + rng.normal(0.0, spec.read_noise_rel));
}

}  // namespace icsc::imc
