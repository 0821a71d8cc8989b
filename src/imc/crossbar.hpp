// Analog crossbar matrix-vector multiplication (Sec. IV).
//
// "This characteristic enables efficient matrix-vector multiplication (MVM)
// when RRAM and PCM are arranged in crossbar array structures by leveraging
// physical laws such as Ohm's law for voltage-conductance multiplication
// and Kirchhoff's current law (KCL) for summation of memory currents in
// the same bitline/wordline."
//
// The crossbar maps a weight matrix onto differential conductance pairs
// (G+ - G-), drives DAC-quantised input voltages on the wordlines, sums
// bitline currents (with optional wire-resistance attenuation), and
// digitises the result with ADCs. Every analog non-ideality of the device
// model flows through: programming error, drift at read time, read noise.
//
// Read-noise contract. Programming draws from the sequential device stream
// (core::Rng seeded by CrossbarConfig::seed); reads never touch it. The
// read noise of MVM m of a crossbar (m counts its matvec/matvec_raw calls
// from 0) is counter-based:
//   - read key   = core::fault_hash(seed, kReadNoiseDomain),
//   - k_m        = core::fault_hash(read key, m),
//   - the cell in row i of physical column p (a spare column's p counts on
//     from cols()) is counter c = p * rows() + i, and its Box-Muller pair
//     is core::simd::normal_pairs(k_m, c, 1, ...): G+ reads
//     g * (1 + read_noise_rel * z0), G- reads g * (1 + read_noise_rel * z1).
// No read depends on another, so any order, lane or thread returns the
// same bits, on every SIMD ISA. |z| <= sqrt(64 ln 2) ~= 6.66 (a 32-bit
// uniform feeds the radius). Stuck and dropout cells take no noise, and a
// noiseless device (read_noise_rel = 0) draws nothing. Each bitline sums
// its rows in ascending order, acc += dac[i] * (G+ - G-) * attenuation[i]
// evaluated left to right, so only the noise values depend on the stream.
#pragma once

#include <cstdint>
#include <vector>

#include "core/aligned.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "imc/device.hpp"
#include "imc/program_verify.hpp"

namespace icsc::imc {

struct CrossbarConfig {
  DeviceSpec device = rram_spec();
  ProgramVerifyConfig programming;
  int dac_bits = 8;   // input quantisation
  int adc_bits = 8;   // output quantisation; <= 0 disables (ideal sensing)
  bool differential = true;  // weights as G+ - G- pairs
  /// Relative bitline attenuation per wordline crossed (IR drop); 0 = ideal
  /// wires. A 256-row array with 1e-4 loses ~2.5% at the far end.
  double ir_drop_per_row = 0.0;
  /// Energy of one 8-bit ADC conversion (pJ); scales ~4x per extra bit.
  /// SAR ADCs shared per bitline in scaled nodes land near 0.5 pJ.
  double adc_energy_pj = 0.5;
  std::uint64_t seed = 1;
  /// Cell-level fault injection (core/fault.hpp): stuck-at cells read a
  /// pinned Gmin/Gmax, drift-faulted cells decay faster than the device
  /// model, transient faults glitch one bitline conversion. All rates
  /// default to zero (no injection). Fault sites are a pure hash of
  /// (faults.seed, seed, cell), so maps are reproducible and nested
  /// across rates.
  core::FaultConfig faults;
  /// Bounded-retry re-programming: cells whose read-back misses tolerance
  /// after the base P&V round are re-programmed with an escalating pulse
  /// budget. Stuck cells burn the full budget and surface as unrepairable.
  RetryPolicy repair;
  /// Spare output columns for remapping: columns with unrepairable cells
  /// are redirected (worst column first) to the spare with the fewest
  /// defects, so tiled MVMs degrade gracefully instead of silently
  /// corrupting outputs. 0 disables remapping.
  std::size_t spare_columns = 0;

  /// Throws core::Error unless dac_bits and adc_bits are each <= 0 (ideal)
  /// or in [2, 31] (1 bit leaves the signed quantiser no level, 32 overflows
  /// its level count), ir_drop_per_row and adc_energy_pj are finite and
  /// >= 0, device.validate(), programming.validate() and faults.validate()
  /// pass, and validate_repair(programming, repair) does.
  void validate() const;
};

/// Domain constant of the read-noise key (see the contract above).
inline constexpr std::uint64_t kReadNoiseDomain = 0x2EAD'0015'E000'0001ULL;

/// Reliability census of one programmed crossbar (and, via TiledMatvec,
/// aggregated across tiles).
struct CrossbarHealth {
  std::size_t total_sites = 0;         // programmed cell sites incl. spares
  std::size_t stuck_sites = 0;         // stuck-at-Gmin/Gmax cells
  std::size_t drift_sites = 0;         // accelerated-drift cells
  std::size_t unrepairable_sites = 0;  // stuck after the full retry budget
  std::size_t repaired_cells = 0;      // out-of-tolerance cells a retry fixed
  std::size_t unverified_cells = 0;    // still out of tolerance, not stuck
  std::size_t retry_rounds = 0;        // total re-programming rounds spent
  std::uint64_t wasted_pulses = 0;     // pulses burnt on unrepairable cells
  std::size_t bad_columns = 0;         // logical columns with stuck sites
  std::size_t remapped_columns = 0;    // redirected to spare columns
  std::uint64_t transient_hits = 0;    // bitline glitches during MVMs

  CrossbarHealth& operator+=(const CrossbarHealth& other);
};

/// One programmed crossbar holding an [out, in] weight matrix.
///
/// Error contract: the constructor throws icsc::core::Error when `weights`
/// is not rank-2 or is empty, or config.validate() does; matvec/matvec_raw
/// throw when the input length does not match the programmed row count or
/// the read time is not finite and >= 0.
class Crossbar {
public:
  /// Programs `weights` (arbitrary scale) into conductances. The weight
  /// scale factor is chosen so max|w| maps to the full conductance range.
  /// With fault injection configured, programming also classifies every
  /// cell site, retries out-of-tolerance cells per `config.repair`, and
  /// remaps defective columns onto `config.spare_columns` spares.
  Crossbar(const core::TensorF& weights, const CrossbarConfig& config);

  /// Analog MVM at `t_seconds` after programming: returns W x in weight
  /// units (the digital periphery rescales conductance sums back).
  std::vector<float> matvec(std::span<const float> x, double t_seconds = 1.0);

  /// Analog MVM *without* the ADC stage: returns the raw bitline sums in
  /// weight units. Used by analog-accumulation architectures ([11]) that
  /// sum partial results in the analog domain across arrays and convert
  /// once. No ADC energy is charged; read energy is. The read-noise
  /// contract at the top of this header fixes every output bit.
  std::vector<double> matvec_raw(std::span<const float> x,
                                 double t_seconds = 1.0);

  /// The shared-full-scale signed quantiser the ADC stage applies; exposed
  /// so accumulation architectures can digitise deferred sums identically.
  static double adc_quantize(double value, double full_scale, int bits);

  /// Charges the ADC energy for `conversions` conversions at this
  /// crossbar's resolution (used when the conversion happens downstream).
  void charge_adc(std::size_t conversions);

  /// Total pulses spent programming the array.
  std::uint64_t programming_pulses() const { return programming_pulses_; }

  /// Reliability census: fault counts, retry outcomes, column remaps.
  const CrossbarHealth& health() const { return health_; }

  /// Energy spent so far (programming + reads + ADC).
  const core::EnergyLedger& energy() const { return energy_; }

  std::size_t rows() const { return in_dim_; }
  std::size_t cols() const { return out_dim_; }

  /// Per-MVM analog op count: in*out multiply-accumulates happen "for free"
  /// in the array; the figure of merit counts them as 2 ops (mul + add).
  std::uint64_t ops_per_mvm() const {
    return 2ull * in_dim_ * out_dim_;
  }

private:
  /// Structure-of-arrays plane of programmed cells (one polarity, G+ or
  /// G-): conductance, per-device drift exponent and fault kind live in
  /// parallel flat arrays, so the MVM read pass streams plain doubles
  /// instead of gathering through an array-of-cells layout.
  struct CellBank {
    core::aligned_vector<double> g_us;
    core::aligned_vector<double> drift_nu;
    std::vector<core::FaultKind> fault;
    /// Any cell with a fault kind: a fault-free bank read at t <= 1 s
    /// needs neither the per-cell fault switch nor the drift test.
    bool any_fault = false;

    void reserve(std::size_t n) {
      g_us.reserve(n);
      drift_nu.reserve(n);
      fault.reserve(n);
    }
  };

  /// Programs the differential pair of one physical column cell and
  /// overlays its fault classification; returns stuck-site count added.
  std::size_t program_pair(const core::TensorF& weights, std::size_t weight_row,
                           std::size_t i, std::size_t physical_col,
                           CellBank& plus, CellBank& minus);
  /// One cell read of any bank at any time: fault switch, drift and the
  /// noise factor 1 + read_noise_rel * z.
  double read_site(const CellBank& bank, std::size_t cell, std::uint64_t site,
                   double t_seconds, double z) const;
  /// Front-end of the raw MVM: validates the input, sets the per-vector
  /// DAC range, and fills the dac / attenuation tables.
  void mvm_periphery(std::span<const float> x);
  /// Back-end: transient glitches and conductance -> weight rescale,
  /// applied per column in column order, plus the read-energy charge.
  void mvm_finish(std::span<double> currents);

  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  CrossbarConfig config_;
  core::Rng rng_;                // programming only
  std::uint64_t read_key_ = 0;   // read-noise stream (see the contract)
  core::FaultInjector injector_;
  // Differential planes, row-major [out][in].
  CellBank plus_;
  CellBank minus_;
  // Programmed spare columns (slot-major [slot][in]) and the logical
  // column -> spare slot redirection (-1 = not remapped).
  CellBank spare_plus_;
  CellBank spare_minus_;
  std::vector<std::uint32_t> spare_physical_col_;  // slot -> physical column
  std::vector<std::int32_t> remap_;
  // MVM scratch reused across calls: DAC codes and IR-drop attenuation
  // per wordline.
  std::vector<double> dac_;
  std::vector<double> row_attenuation_;
  double weight_scale_ = 1.0;  // conductance-units per weight-unit
  double input_scale_ = 1.0;   // max|x| assumed by the DAC
  std::uint64_t programming_pulses_ = 0;
  std::uint64_t mvm_count_ = 0;  // MVM index: read noise, transient faults
  CrossbarHealth health_;
  core::EnergyLedger energy_;
  /// Pre-resolved "analog_mvm" ledger slot: the per-pass charge in
  /// mvm_finish() is a pointer add instead of a string map lookup. Bound
  /// lazily against &energy_ so a copied/moved/relocated Crossbar rebinds
  /// into its own ledger instead of charging the source's.
  core::EnergyCell mvm_energy_cell_;
  const core::EnergyLedger* mvm_cell_owner_ = nullptr;
};

/// Root-mean-square error of the crossbar MVM against the exact product
/// over random inputs; the convergence-to-ideal property tests use this.
double crossbar_mvm_rmse(const core::TensorF& weights,
                         const CrossbarConfig& config, int trials,
                         double t_seconds, std::uint64_t seed);

}  // namespace icsc::imc
