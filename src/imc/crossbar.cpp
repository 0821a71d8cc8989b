#include "imc/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.hpp"
#include "core/simd.hpp"
#include "core/trace.hpp"

namespace icsc::imc {

namespace {

/// Symmetric midrise quantiser over [-full_scale, full_scale].
double quantize_signed(double value, double full_scale, int bits) {
  if (bits <= 0 || full_scale <= 0.0) return value;
  const double levels = static_cast<double>((1 << (bits - 1)) - 1);
  const double code =
      std::clamp(std::round(value / full_scale * levels), -levels, levels);
  return code / levels * full_scale;
}

bool defect_kind(core::FaultKind kind) {
  return kind == core::FaultKind::kStuckAtLow ||
         kind == core::FaultKind::kStuckAtHigh ||
         kind == core::FaultKind::kDropout;
}

/// Pulses one programming round is budgeted for under `config`.
int round_budget(const ProgramVerifyConfig& config) {
  switch (config.scheme) {
    case ProgramScheme::kSinglePulse: return 1;
    case ProgramScheme::kFixedPulses: return config.fixed_pulses;
    case ProgramScheme::kVerify: return config.max_pulses;
  }
  return 1;
}

/// Rows per stack block of read-noise normals (two blocks of doubles).
constexpr std::size_t kReadBlock = 64;

/// Rows [0, rows) of a fault-free bitline read at t <= 1 s, where no cell
/// drifts: read_site's G+ - G- per row, summed onto acc in row order.
template <bool kDifferential>
double sum_clean_rows(const double* gp, const double* gm, const double* zp,
                      const double* zm, const double* dac,
                      const double* attenuation, double sigma,
                      std::size_t rows, double acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    double g = gp[r] * (1.0 + sigma * zp[r]);
    if constexpr (kDifferential) g -= gm[r] * (1.0 + sigma * zm[r]);
    acc += dac[r] * g * attenuation[r];
  }
  return acc;
}

}  // namespace

void CrossbarConfig::validate() const {
  const std::string where = "imc::CrossbarConfig";
  const auto require_bits = [&](const char* field, int bits) {
    if (bits <= 0 || (bits >= 2 && bits <= 31)) return;
    throw core::Error(where,
                      std::string(field) + " must be <= 0 (ideal) or in [2, 31]",
                      "got " + std::to_string(bits));
  };
  require_bits("dac_bits", dac_bits);
  require_bits("adc_bits", adc_bits);
  core::require_at_least(where, "ir_drop_per_row", ir_drop_per_row, 0.0);
  core::require_at_least(where, "adc_energy_pj", adc_energy_pj, 0.0);
  device.validate();
  programming.validate();
  validate_repair(programming, repair);
  faults.validate();
}

CrossbarHealth& CrossbarHealth::operator+=(const CrossbarHealth& other) {
  total_sites += other.total_sites;
  stuck_sites += other.stuck_sites;
  drift_sites += other.drift_sites;
  unrepairable_sites += other.unrepairable_sites;
  repaired_cells += other.repaired_cells;
  unverified_cells += other.unverified_cells;
  retry_rounds += other.retry_rounds;
  wasted_pulses += other.wasted_pulses;
  bad_columns += other.bad_columns;
  remapped_columns += other.remapped_columns;
  transient_hits += other.transient_hits;
  return *this;
}

Crossbar::Crossbar(const core::TensorF& weights, const CrossbarConfig& config)
    : in_dim_(weights.rank() == 2 ? weights.dim(1) : 0),
      out_dim_(weights.rank() == 2 ? weights.dim(0) : 0),
      config_(config),
      rng_(config.seed),
      read_key_(core::fault_hash(config.seed, kReadNoiseDomain)),
      injector_(config.faults, config.seed) {
  config_.validate();
  if (weights.rank() != 2) {
    throw core::Error("imc::Crossbar", "weights must be rank-2",
                      "got shape " + core::shape_to_string(weights.shape()));
  }
  if (in_dim_ == 0 || out_dim_ == 0) {
    throw core::Error("imc::Crossbar", "weights must be non-empty",
                      "got shape " + core::shape_to_string(weights.shape()));
  }
  float w_max = 0.0F;
  for (const float w : weights.data()) w_max = std::max(w_max, std::abs(w));
  weight_scale_ = w_max > 0 ? config_.device.g_range() / w_max : 1.0;

  remap_.assign(out_dim_, -1);
  plus_.reserve(in_dim_ * out_dim_);
  minus_.reserve(in_dim_ * out_dim_);
  std::vector<std::size_t> column_defects(out_dim_, 0);
  {
    ICSC_TRACE_SPAN("imc/program_array");
    for (std::size_t o = 0; o < out_dim_; ++o) {
      for (std::size_t i = 0; i < in_dim_; ++i) {
        column_defects[o] += program_pair(weights, o, i, o, plus_, minus_);
      }
    }
  }

  // Spare-column remapping: pair the worst defective columns with the
  // cleanest spares; a spare is committed only when it strictly reduces
  // the column's defect count. The spare fault census is a pure injector
  // query, so the pairing is deterministic and independent of programming.
  if (config_.spare_columns > 0 && injector_.enabled()) {
    const auto spare_stuck = [&](std::size_t spare) {
      const std::size_t physical = out_dim_ + spare;
      std::size_t defects = 0;
      for (std::size_t i = 0; i < in_dim_; ++i) {
        const std::uint64_t site = 2 * (physical * in_dim_ + i);
        if (defect_kind(injector_.at(site))) ++defects;
        if (config_.differential && defect_kind(injector_.at(site + 1))) {
          ++defects;
        }
      }
      return defects;
    };
    std::vector<std::size_t> spares(config_.spare_columns);
    std::iota(spares.begin(), spares.end(), std::size_t{0});
    std::vector<std::size_t> spare_defects(config_.spare_columns);
    for (std::size_t s = 0; s < config_.spare_columns; ++s) {
      spare_defects[s] = spare_stuck(s);
    }
    std::stable_sort(spares.begin(), spares.end(), [&](auto a, auto b) {
      return spare_defects[a] < spare_defects[b];
    });
    std::vector<std::size_t> bad_columns;
    for (std::size_t o = 0; o < out_dim_; ++o) {
      if (column_defects[o] > 0) bad_columns.push_back(o);
    }
    health_.bad_columns = bad_columns.size();
    std::stable_sort(bad_columns.begin(), bad_columns.end(),
                     [&](auto a, auto b) {
                       return column_defects[a] > column_defects[b];
                     });
    std::size_t next_spare = 0;
    for (const std::size_t col : bad_columns) {
      if (next_spare >= spares.size()) break;
      const std::size_t spare = spares[next_spare];
      if (spare_defects[spare] >= column_defects[col]) break;  // no gain left
      ++next_spare;
      const std::size_t physical = out_dim_ + spare;
      for (std::size_t i = 0; i < in_dim_; ++i) {
        program_pair(weights, col, i, physical, spare_plus_, spare_minus_);
      }
      remap_[col] = static_cast<std::int32_t>(spare_physical_col_.size());
      spare_physical_col_.push_back(static_cast<std::uint32_t>(physical));
      ++health_.remapped_columns;
    }
  } else if (injector_.enabled()) {
    for (std::size_t o = 0; o < out_dim_; ++o) {
      if (column_defects[o] > 0) ++health_.bad_columns;
    }
  }

  energy_.add_pj("programming",
                 static_cast<double>(programming_pulses_) *
                     config_.device.program_energy_pj);
}

std::size_t Crossbar::program_pair(const core::TensorF& weights,
                                   std::size_t weight_row, std::size_t i,
                                   std::size_t physical_col, CellBank& plus,
                                   CellBank& minus) {
  const double w = weights(weight_row, i);
  // The device-noise stream is drawn identically whatever the fault
  // configuration: cells are always programmed normally first and the
  // fault overlay only reinterprets the result, so fault sweeps perturb
  // exactly the faulty sites and nothing else.
  MemoryCell cell_plus(config_.device, rng_);
  MemoryCell cell_minus(config_.device, rng_);
  const double target_plus =
      config_.device.g_min_us + std::max(0.0, w) * weight_scale_;
  const double target_minus =
      config_.device.g_min_us + std::max(0.0, -w) * weight_scale_;

  std::size_t defects = 0;
  const std::uint64_t cell = physical_col * in_dim_ + i;
  const auto program_one = [&](MemoryCell& memory_cell, double target,
                               std::uint64_t site, CellBank& bank) {
    const RepairOutcome outcome =
        program_cell_retry(memory_cell, config_.device, rng_, target,
                           config_.programming, config_.repair);
    programming_pulses_ += static_cast<std::uint64_t>(outcome.pulses);
    ++health_.total_sites;
    core::FaultKind kind = injector_.at(site);
    if (kind == core::FaultKind::kTransientFlip ||
        kind == core::FaultKind::kDelay) {
      kind = core::FaultKind::kNone;  // handled per-operation / not modelled
    }
    if (defect_kind(kind)) {
      // The controller's read-back sees the pinned conductance: every
      // round runs to its full pulse budget and still fails verification.
      ++health_.stuck_sites;
      ++health_.unrepairable_sites;
      health_.retry_rounds +=
          static_cast<std::size_t>(config_.repair.max_retries);
      std::uint64_t budget = 0;
      double scaled = round_budget(config_.programming);
      for (int r = 0; r <= config_.repair.max_retries; ++r) {
        budget += static_cast<std::uint64_t>(std::ceil(scaled));
        scaled *= config_.repair.backoff;
      }
      if (budget > static_cast<std::uint64_t>(outcome.pulses)) {
        const std::uint64_t waste =
            budget - static_cast<std::uint64_t>(outcome.pulses);
        programming_pulses_ += waste;
        health_.wasted_pulses += waste;
      }
      ++defects;
    } else {
      health_.retry_rounds += static_cast<std::size_t>(outcome.retries);
      if (outcome.retries > 0 && outcome.verified) ++health_.repaired_cells;
      if (!outcome.verified) ++health_.unverified_cells;
      if (kind == core::FaultKind::kDrift) ++health_.drift_sites;
    }
    bank.fault.push_back(kind);
    bank.any_fault |= kind != core::FaultKind::kNone;
  };

  program_one(cell_plus, target_plus, 2 * cell, plus);
  if (config_.differential) {
    program_one(cell_minus, target_minus, 2 * cell + 1, minus);
  } else {
    minus.fault.push_back(core::FaultKind::kNone);
  }
  // Decompose the programmed cells into the SoA plane.
  plus.g_us.push_back(cell_plus.raw_conductance());
  plus.drift_nu.push_back(cell_plus.drift_nu());
  minus.g_us.push_back(cell_minus.raw_conductance());
  minus.drift_nu.push_back(cell_minus.drift_nu());
  return defects;
}

double Crossbar::read_site(const CellBank& bank, std::size_t cell,
                           std::uint64_t site, double t_seconds,
                           double z) const {
  // MemoryCell::read over the SoA plane: drifted conductance (t0 = 1 s
  // reference) with multiplicative read noise. A noiseless device has
  // sigma = z = 0, and g * (1 + 0 * 0) is exactly g.
  const auto noisy_read = [&] {
    const double nu = bank.drift_nu[cell];
    const double g0 = bank.g_us[cell];
    const double g = (nu <= 0.0 || t_seconds <= 1.0)
                         ? g0
                         : g0 * std::pow(t_seconds, -nu);
    return g * (1.0 + config_.device.read_noise_rel * z);
  };
  switch (bank.fault[cell]) {
    case core::FaultKind::kStuckAtLow:
      return config_.device.g_min_us;
    case core::FaultKind::kStuckAtHigh:
      return config_.device.g_max_us;
    case core::FaultKind::kDropout:
      return 0.0;  // open cell: no conduction path
    case core::FaultKind::kDrift: {
      // Accelerated decay on top of the device drift model; only visible
      // past the t0 = 1 s drift reference, so default-time reads are clean.
      const double extra_nu = 0.05 + 0.25 * injector_.severity(site);
      const double t_rel = std::max(t_seconds, 1.0);
      return noisy_read() * std::pow(t_rel, -extra_nu);
    }
    default:
      return noisy_read();
  }
}

void Crossbar::mvm_periphery(std::span<const float> x) {
  if (x.size() != in_dim_) {
    throw core::Error("imc::Crossbar::matvec", "input length mismatch",
                      "got " + std::to_string(x.size()) + ", expected " +
                          std::to_string(in_dim_));
  }
  // Per-vector DAC ranging: the digital front-end normalises the input
  // vector to the DAC full scale.
  double x_max = 0.0;
  for (const float v : x) x_max = std::max(x_max, std::abs(double{v}));
  input_scale_ = x_max > 0 ? x_max : 1.0;

  // The DAC codes and the per-row IR-drop attenuation depend only on the
  // row index, not the column: hoist both out of the column loop. Same
  // values in the same per-column accumulation order -> bit-identical.
  dac_.resize(in_dim_);
  for (std::size_t i = 0; i < in_dim_; ++i) {
    dac_[i] = quantize_signed(x[i], input_scale_, config_.dac_bits);
  }
  // IR drop: rows farther from the sense amplifier contribute less. The
  // table is a pure function of the row index and the (fixed) config, so
  // it is filled once and reused across every MVM.
  if (row_attenuation_.size() != in_dim_) {
    row_attenuation_.resize(in_dim_);
    for (std::size_t i = 0; i < in_dim_; ++i) {
      row_attenuation_[i] =
          std::max(0.0, 1.0 - config_.ir_drop_per_row * static_cast<double>(i));
    }
  }
}

void Crossbar::mvm_finish(std::span<double> currents) {
  for (std::size_t o = 0; o < out_dim_; ++o) {
    const std::int32_t slot = remap_[o];
    const std::size_t physical =
        slot >= 0 ? spare_physical_col_[static_cast<std::size_t>(slot)] : o;
    double acc = currents[o];
    // Transient (SEU-style) glitch of this bitline's conversion: a pure
    // function of (column, operation index), so runs stay reproducible.
    if (injector_.transient(physical, mvm_count_)) {
      acc = -acc;
      ++health_.transient_hits;
    }
    currents[o] = acc / weight_scale_;  // back to weight units
  }
  ++mvm_count_;
  const double reads =
      static_cast<double>(in_dim_) * out_dim_ * (config_.differential ? 2 : 1);
  if (mvm_cell_owner_ != &energy_) {
    mvm_energy_cell_ = energy_.cell("analog_mvm");
    mvm_cell_owner_ = &energy_;
  }
  mvm_energy_cell_.add_pj(reads * config_.device.read_energy_pj);
}

std::vector<double> Crossbar::matvec_raw(std::span<const float> x,
                                         double t_seconds) {
  core::require_at_least("imc::Crossbar::matvec", "t_seconds", t_seconds, 0.0);
  mvm_periphery(x);
  std::vector<double> out(out_dim_);
  const double sigma = config_.device.read_noise_rel;
  const bool differential = config_.differential;
  const auto sum_clean =
      differential ? sum_clean_rows<true> : sum_clean_rows<false>;
  const std::uint64_t mvm_key = core::fault_hash(read_key_, mvm_count_);
  // One bitline at a time, its rows in stack blocks whose normals come
  // from the counter-based stream; every bitline keeps the ascending row
  // sum. A noiseless device draws nothing and reads with z = 0.
  double z_plus[kReadBlock] = {};
  double z_minus[kReadBlock] = {};
  for (std::size_t o = 0; o < out_dim_; ++o) {
    const std::int32_t slot = remap_[o];
    const bool spare = slot >= 0;
    const std::size_t base =
        (spare ? static_cast<std::size_t>(slot) : o) * in_dim_;
    const std::size_t physical =
        spare ? spare_physical_col_[static_cast<std::size_t>(slot)] : o;
    const CellBank& plus = spare ? spare_plus_ : plus_;
    const CellBank& minus = spare ? spare_minus_ : minus_;
    const bool clean = !plus.any_fault && !minus.any_fault && t_seconds <= 1.0;
    double acc = 0.0;
    for (std::size_t i0 = 0; i0 < in_dim_; i0 += kReadBlock) {
      const std::size_t rows = std::min(kReadBlock, in_dim_ - i0);
      if (sigma > 0.0) {
        core::simd::normal_pairs(mvm_key, physical * in_dim_ + i0, rows,
                                 z_plus, z_minus);
      }
      if (clean) {
        acc = sum_clean(plus.g_us.data() + base + i0,
                        minus.g_us.data() + base + i0, z_plus, z_minus,
                        dac_.data() + i0, row_attenuation_.data() + i0, sigma,
                        rows, acc);
        continue;
      }
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = i0 + r;
        const std::uint64_t site = 2 * (physical * in_dim_ + i);
        double g = read_site(plus, base + i, site, t_seconds, z_plus[r]);
        if (differential) {
          g -= read_site(minus, base + i, site + 1, t_seconds, z_minus[r]);
        }
        // Ohm's law; KCL sums onto the bitline.
        acc += dac_[i] * g * row_attenuation_[i];
      }
    }
    out[o] = acc;
  }
  mvm_finish(out);
  return out;
}

double Crossbar::adc_quantize(double value, double full_scale, int bits) {
  return quantize_signed(value, full_scale, bits);
}

void Crossbar::charge_adc(std::size_t conversions) {
  if (config_.adc_bits > 0) {
    energy_.add_pj("adc", static_cast<double>(conversions) *
                              config_.adc_energy_pj *
                              std::pow(4.0, config_.adc_bits - 8));
  }
}

std::vector<float> Crossbar::matvec(std::span<const float> x,
                                    double t_seconds) {
  const auto currents = matvec_raw(x, t_seconds);

  // ADC: shared full-scale per conversion batch; energy scales ~4x/bit.
  double fs = 0.0;
  for (const double c : currents) fs = std::max(fs, std::abs(c));
  std::vector<float> y(out_dim_);
  for (std::size_t o = 0; o < out_dim_; ++o) {
    y[o] = static_cast<float>(quantize_signed(currents[o], fs, config_.adc_bits));
  }
  charge_adc(out_dim_);
  return y;
}

double crossbar_mvm_rmse(const core::TensorF& weights,
                         const CrossbarConfig& config, int trials,
                         double t_seconds, std::uint64_t seed) {
  Crossbar xbar(weights, config);
  core::Rng rng(seed);
  double sq_sum = 0.0;
  std::size_t count = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<float> x(weights.dim(1));
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto exact = core::matvec(weights, std::span<const float>(x));
    const auto noisy = xbar.matvec(x, t_seconds);
    for (std::size_t o = 0; o < exact.size(); ++o) {
      const double diff = static_cast<double>(noisy[o]) - exact[o];
      sq_sum += diff * diff;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(sq_sum / static_cast<double>(count)) : 0.0;
}

}  // namespace icsc::imc
