// Tiled multi-core IMC accelerator and DNN mapper (Sec. IV, architecture
// level).
//
// "It is essential to develop a multicore system that can harmonize and
// synchronize the analog MVM operations in each memory array, the digital
// activation and error compensation, and the data movement between the
// Processing Elements. This requires ... a proper mapping of the DNN
// coefficients and operations into the various tiles."
//
// A TiledAccelerator partitions each layer's weight matrix into fixed-size
// crossbar tiles, performs the analog MVMs per tile, accumulates partial
// sums digitally, and accounts energy for the array reads, ADCs, digital
// accumulation, and inter-tile traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "core/tensor.hpp"
#include "imc/crossbar.hpp"

namespace icsc::imc {

struct TileConfig {
  std::size_t tile_rows = 64;   // crossbar inputs per tile
  std::size_t tile_cols = 64;   // crossbar outputs per tile
  CrossbarConfig crossbar;
  /// Digital partial-sum accumulation energy per value (pJ).
  double accumulate_energy_pj = 0.05;
  /// Interconnect energy per value moved between tiles (pJ).
  double noc_energy_pj = 0.15;
  /// Latency per tile MVM (ns) and per NoC hop (ns), for throughput roll-up.
  double tile_mvm_ns = 100.0;
  double noc_hop_ns = 5.0;
  /// Analog accumulation ([11]): partial sums of the row tiles in one
  /// column strip are accumulated in the analog (charge) domain and
  /// digitised once, cutting ADC conversions by the row-tile count at the
  /// cost of a small accumulation error per hop.
  bool analog_accumulation = false;
  double analog_hop_noise_rel = 0.002;  // per extra tile chained

  /// Throws core::Error unless tile_rows and tile_cols are >= 1, the hop
  /// noise, energies and latencies are finite and >= 0, and
  /// crossbar.validate() passes.
  void validate() const;
};

/// One weight matrix mapped onto a grid of crossbar tiles.
///
/// Error contract: the constructor throws icsc::core::Error when `weights`
/// is not a non-empty rank-2 tensor or config.validate() does; matvec
/// throws on an input-length mismatch or a read time that is not finite
/// and >= 0. Fault injection configured in
/// `config.crossbar.faults` flows through to every tile (each tile gets an
/// independent fault stream keyed by its seed); `health()` aggregates the
/// per-tile reliability census.
///
/// The tile is the unit of pool work: the constructor programs every tile
/// concurrently and matvec reads every tile concurrently. Each tile owns
/// its device stream, read-noise key, energy ledger and census, and the
/// partial sums fold serially in strip and row-tile order, so results do
/// not depend on the thread count.
class TiledMatvec {
public:
  TiledMatvec(const core::TensorF& weights, const TileConfig& config);

  std::vector<float> matvec(std::span<const float> x, double t_seconds = 1.0);

  std::size_t tile_count() const { return tiles_.size(); }

  /// Aggregated reliability census across all tiles.
  CrossbarHealth health() const;
  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  /// Aggregated energy across all tiles plus digital/NoC bookkeeping.
  double total_energy_pj() const;
  /// Energy and latency of one MVM (steady state, tiles run in parallel
  /// across the output dimension, sequentially along the input dimension).
  double mvm_energy_pj() const { return last_mvm_energy_pj_; }
  double mvm_latency_ns() const;
  std::uint64_t ops_per_mvm() const { return 2ull * in_dim_ * out_dim_; }

private:
  struct TileSlot {
    std::size_t row_begin, row_end;  // input slice
    std::size_t col_begin, col_end;  // output slice
    std::optional<Crossbar> crossbar;  // set once the tile is programmed
  };

  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  TileConfig config_;
  std::vector<TileSlot> tiles_;
  std::size_t row_tiles_ = 0;
  core::EnergyLedger digital_energy_;
  double last_mvm_energy_pj_ = 0.0;
  core::Rng hop_rng_{0xACC};  // analog accumulation-hop noise
};

}  // namespace icsc::imc
