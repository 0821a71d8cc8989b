// SRAM-based digital in-memory computing macro (Sec. IV, [2], [8]).
//
// "Recently, SRAM-based digital IMC (DIMC) has been proposed with
// outstanding energy-efficient characteristics" -- exact bit-true integer
// arithmetic computed inside the SRAM macro with bit-serial multipliers
// and adder trees, removing the A/D conversion burden of analog IMC at the
// cost of "the design of fast adder trees and multipliers". The model
// computes exactly (no analog noise) and accounts energy per bit-serial
// cycle, calibrated to the 40-310 TOPS/W envelope of [8].
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/tensor.hpp"

namespace icsc::imc {

struct DimcConfig {
  int weight_bits = 4;   // [8] supports up to 4b weights
  int input_bits = 8;    // bit-serial input streaming
  /// Energy per 1b x weight_bits MAC inside the macro (pJ); includes the
  /// local adder-tree share. Calibrated to ~0.003 pJ for 4b weights in
  /// FD-SOI 18nm ([8] at peak efficiency).
  double mac_energy_pj = 0.003;
  /// Per-output accumulator/readout energy (pJ).
  double readout_energy_pj = 0.05;
};

/// Exact quantised matvec as executed by a DIMC macro: weights and inputs
/// are uniformly quantised to the configured widths, the arithmetic is
/// bit-true integer, and the result is returned de-quantised.
///
/// Error contract: the constructor throws icsc::core::Error when `weights`
/// is not rank-2; matvec throws when the input length does not match the
/// weight columns.
class DimcMacro {
public:
  DimcMacro(const core::TensorF& weights, const DimcConfig& config);

  std::vector<float> matvec(std::span<const float> x);

  const core::EnergyLedger& energy() const { return energy_; }

  /// Ops per MVM (2 per MAC) for TOPS accounting.
  std::uint64_t ops_per_mvm() const;

  /// Peak efficiency implied by the configuration (TOPS/W) at the given
  /// macro clock; the [8] headline numbers for context.
  double tops_per_watt(double clock_mhz, double static_power_mw) const;

private:
  DimcConfig config_;
  core::TensorI32 q_weights_;  // [out, in] integer codes
  double weight_step_ = 1.0;
  core::EnergyLedger energy_;
};

/// Energy per 8b-equivalent MAC of a conventional digital datapath (SRAM
/// fetch + MAC unit), for the analog vs DIMC vs digital comparison bench.
double digital_baseline_mac_energy_pj();

}  // namespace icsc::imc
