#include "imc/characterization.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/fault.hpp"

namespace icsc::imc {

DriftCharacterization characterize_drift(const DeviceSpec& spec, int cells,
                                         int time_points,
                                         std::uint64_t seed) {
  spec.validate();
  core::Rng rng(seed);
  ProgramVerifyConfig pv;
  pv.scheme = ProgramScheme::kVerify;

  // Program a population near the top of the range (drift is defined
  // relative to the as-verified conductance at t0 = 1 s).
  const double target = spec.g_min_us + 0.8 * spec.g_range();
  std::vector<MemoryCell> population;
  population.reserve(cells);
  for (int i = 0; i < cells; ++i) {
    MemoryCell cell(spec, rng);
    program_cell(cell, spec, rng, target, pv);
    population.push_back(cell);
  }

  // Log-spaced retention times from 10 s to ~1 year.
  std::vector<double> log_t, log_g;
  std::vector<double> per_cell_nu(cells, 0.0);
  for (int p = 0; p < time_points; ++p) {
    const double t = 10.0 * std::pow(10.0, 0.5 * p);
    double mean_g = 0.0;
    for (int c = 0; c < cells; ++c) {
      mean_g += population[c].read(spec, rng, t);
    }
    mean_g /= cells;
    log_t.push_back(std::log(t));
    log_g.push_back(std::log(std::max(1e-9, mean_g)));
  }
  // Per-cell exponents from two far-apart noiseless samples.
  for (int c = 0; c < cells; ++c) {
    const double g1 = population[c].conductance_at(10.0);
    const double g2 = population[c].conductance_at(1e7);
    per_cell_nu[c] = -(std::log(g2) - std::log(g1)) /
                     (std::log(1e7) - std::log(10.0));
  }

  DriftCharacterization out;
  const auto fit = core::fit_linear(log_t, log_g);
  out.fitted_nu = -fit.slope;
  out.fit_r_squared = fit.r_squared;
  out.nu_spread = core::summarize(per_cell_nu).stddev;
  return out;
}

core::Summary characterize_programming_error(const DeviceSpec& spec,
                                             const ProgramVerifyConfig& config,
                                             double target_us, int cells,
                                             std::uint64_t seed) {
  spec.validate();
  config.validate();
  core::Rng rng(seed);
  std::vector<double> errors;
  errors.reserve(cells);
  for (int i = 0; i < cells; ++i) {
    MemoryCell cell(spec, rng);
    program_cell(cell, spec, rng, target_us, config);
    errors.push_back(cell.raw_conductance() - target_us);
  }
  return core::summarize(errors);
}

namespace {

// Domain separators for the hash-derived per-cell streams, so the
// sequential studies never alias the campaign seeds they are run next to.
constexpr std::uint64_t kProgramErrorDomain = 0x1F'C0'DE'01ULL;
constexpr std::uint64_t kReadNoiseDomain = 0x1F'C0'DE'02ULL;

}  // namespace

SequentialCharacterization characterize_programming_error_sequential(
    const DeviceSpec& spec, const ProgramVerifyConfig& program_config,
    double target_us, int budget, std::uint64_t seed,
    const core::sampling::EarlyStopConfig& early_stop) {
  spec.validate();
  program_config.validate();
  core::sampling::SequentialController controller(early_stop, 1);
  SequentialCharacterization out;
  out.samples_budgeted = static_cast<std::size_t>(std::max(0, budget));
  for (int i = 0; i < budget; ++i) {
    // Cell i owns a hash-derived stream: measurement i is identical
    // whether the study stops at 100 cells or runs all of them.
    core::Rng rng(core::fault_hash(seed ^ kProgramErrorDomain,
                                   static_cast<std::uint64_t>(i)));
    MemoryCell cell(spec, rng);
    program_cell(cell, spec, rng, target_us, program_config);
    const double abs_error = std::fabs(cell.raw_conductance() - target_us);
    if (controller.observe(std::span<const double>(&abs_error, 1))) {
      out.stopped_early = true;
      break;
    }
  }
  out.samples_run = controller.trials();
  out.estimate = controller.estimate(0);
  out.stop_reason = out.stopped_early
                        ? core::sampling::StopReason::kConverged
                        : core::sampling::StopReason::kBudget;
  return out;
}

SequentialCharacterization characterize_read_noise_sequential(
    const DeviceSpec& spec, int budget, std::uint64_t seed,
    const core::sampling::EarlyStopConfig& early_stop) {
  spec.validate();
  early_stop.validate();
  core::Rng rng(core::fault_hash(seed ^ kReadNoiseDomain, 0));
  MemoryCell cell(spec, rng);
  ProgramVerifyConfig pv;
  program_cell(cell, spec, rng, spec.g_min_us + 0.7 * spec.g_range(), pv);
  // The KPI here is a *dispersion* (the relative read-noise sigma), so the
  // stop rule runs on the large-sample stddev interval rather than the
  // mean interval the SequentialController tests. Same prefix-purity: the
  // verdict at read n is a pure function of reads 0..n-1.
  core::sampling::OnlineStats reads;
  SequentialCharacterization out;
  out.samples_budgeted = static_cast<std::size_t>(std::max(0, budget));
  for (int i = 0; i < budget; ++i) {
    reads.push(cell.read(spec, rng, 1.0));
    const std::size_t n = reads.count();
    if (!early_stop.enabled || n < early_stop.min_trials) continue;
    if ((n - early_stop.min_trials) % early_stop.check_every != 0) continue;
    const double hw = core::sampling::stddev_half_width(
        reads, early_stop.confidence);
    const double scale =
        std::max(reads.stddev(), early_stop.absolute_floor);
    if (scale > 0.0 && hw <= early_stop.relative_half_width * scale) {
      out.stopped_early = true;
      break;
    }
  }
  out.samples_run = reads.count();
  out.estimate.count = reads.count();
  out.estimate.confidence = early_stop.confidence;
  const double mean = reads.mean();
  const double sigma_rel = mean > 0.0 ? reads.stddev() / mean : 0.0;
  out.estimate.mean = sigma_rel;
  out.estimate.stddev = reads.stddev();
  out.estimate.half_width =
      mean > 0.0
          ? core::sampling::stddev_half_width(reads, early_stop.confidence) /
                mean
          : 0.0;
  out.stop_reason = out.stopped_early
                        ? core::sampling::StopReason::kConverged
                        : core::sampling::StopReason::kBudget;
  return out;
}

double characterize_read_noise(const DeviceSpec& spec, int reads,
                               std::uint64_t seed) {
  spec.validate();
  core::Rng rng(seed);
  MemoryCell cell(spec, rng);
  ProgramVerifyConfig pv;
  program_cell(cell, spec, rng, spec.g_min_us + 0.7 * spec.g_range(), pv);
  std::vector<double> samples;
  samples.reserve(reads);
  for (int i = 0; i < reads; ++i) {
    samples.push_back(cell.read(spec, rng, 1.0));
  }
  const auto summary = core::summarize(samples);
  return summary.mean > 0 ? summary.stddev / summary.mean : 0.0;
}

}  // namespace icsc::imc
