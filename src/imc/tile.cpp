#include "imc/tile.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"

namespace icsc::imc {

namespace {

/// Cell reads below which one MVM reads its tiles inline: a pool dispatch
/// costs more than it spreads under about one 64 x 64 differential tile
/// (E27).
constexpr std::size_t kMinPooledReads = 2 * 64 * 64;

}  // namespace

void TileConfig::validate() const {
  const std::string where = "imc::TileConfig";
  core::require_at_least(where, "tile_rows", static_cast<double>(tile_rows), 1);
  core::require_at_least(where, "tile_cols", static_cast<double>(tile_cols), 1);
  core::require_at_least(where, "accumulate_energy_pj", accumulate_energy_pj,
                         0.0);
  core::require_at_least(where, "noc_energy_pj", noc_energy_pj, 0.0);
  core::require_at_least(where, "tile_mvm_ns", tile_mvm_ns, 0.0);
  core::require_at_least(where, "noc_hop_ns", noc_hop_ns, 0.0);
  core::require_at_least(where, "analog_hop_noise_rel", analog_hop_noise_rel,
                         0.0);
  crossbar.validate();
}

TiledMatvec::TiledMatvec(const core::TensorF& weights, const TileConfig& config)
    : in_dim_(weights.rank() == 2 ? weights.dim(1) : 0),
      out_dim_(weights.rank() == 2 ? weights.dim(0) : 0),
      config_(config) {
  if (weights.rank() != 2 || in_dim_ == 0 || out_dim_ == 0) {
    throw core::Error("imc::TiledMatvec", "weights must be non-empty rank-2",
                      "got shape " + core::shape_to_string(weights.shape()));
  }
  config.validate();
  row_tiles_ = (in_dim_ + config.tile_rows - 1) / config.tile_rows;
  const std::size_t col_tiles =
      (out_dim_ + config.tile_cols - 1) / config.tile_cols;
  tiles_.reserve(col_tiles * row_tiles_);
  for (std::size_t ct = 0; ct < col_tiles; ++ct) {
    const std::size_t col_begin = ct * config.tile_cols;
    const std::size_t col_end = std::min(out_dim_, col_begin + config.tile_cols);
    for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
      const std::size_t row_begin = rt * config.tile_rows;
      const std::size_t row_end = std::min(in_dim_, row_begin + config.tile_rows);
      tiles_.push_back(TileSlot{row_begin, row_end, col_begin, col_end, {}});
    }
  }
  // Every tile programs on the pool into its own slot, from its own
  // device population: tile t is seeded crossbar.seed + 1 + t.
  core::parallel_for(0, tiles_.size(), 1, [&](std::size_t begin,
                                              std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      auto& slot = tiles_[t];
      core::TensorF slice(
          {slot.col_end - slot.col_begin, slot.row_end - slot.row_begin});
      for (std::size_t o = slot.col_begin; o < slot.col_end; ++o) {
        for (std::size_t i = slot.row_begin; i < slot.row_end; ++i) {
          slice(o - slot.col_begin, i - slot.row_begin) = weights(o, i);
        }
      }
      CrossbarConfig xcfg = config.crossbar;
      xcfg.seed = config.crossbar.seed + 1 + t;
      slot.crossbar.emplace(slice, xcfg);
    }
  });
}

std::vector<float> TiledMatvec::matvec(std::span<const float> x,
                                       double t_seconds) {
  ICSC_TRACE_SPAN("imc/tiled_mvm");
  ICSC_TRACE_COUNT("imc.mvms", 1);
  if (x.size() != in_dim_) {
    throw core::Error("imc::TiledMatvec::matvec", "input length mismatch",
                      "got " + std::to_string(x.size()) + ", expected " +
                          std::to_string(in_dim_));
  }
  core::require_at_least("imc::TiledMatvec::matvec", "t_seconds", t_seconds,
                         0.0);
  std::vector<float> y(out_dim_, 0.0F);
  double energy_before = total_energy_pj();

  // Every tile reads on the pool, unless the whole MVM is too small to
  // pay for the dispatch: ADC'd on the digital path, raw bitline sums
  // under analog accumulation. A read touches only its own tile's
  // read-noise key, scratch, energy ledger and census.
  const bool analog = config_.analog_accumulation;
  std::vector<std::vector<float>> digitised(analog ? 0 : tiles_.size());
  std::vector<std::vector<double>> raw(analog ? tiles_.size() : 0);
  const std::size_t reads =
      in_dim_ * out_dim_ * (config_.crossbar.differential ? 2 : 1);
  const std::size_t grain = reads >= kMinPooledReads ? 1 : tiles_.size();
  core::parallel_for(0, tiles_.size(), grain, [&](std::size_t begin,
                                                  std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      auto& slot = tiles_[t];
      const auto slice =
          x.subspan(slot.row_begin, slot.row_end - slot.row_begin);
      if (analog) {
        raw[t] = slot.crossbar->matvec_raw(slice, t_seconds);
      } else {
        digitised[t] = slot.crossbar->matvec(slice, t_seconds);
      }
    }
  });

  // One serial fold, column strip by column strip (the tiles_ groups of
  // row_tiles_ consecutive slots), row tiles in order: the same float sums
  // and hop draws as a one-thread run, whatever ran the reads.
  const std::size_t strips = tiles_.size() / row_tiles_;
  if (analog) {
    // Charge-domain accumulation across the row tiles of each column
    // strip; a single ADC conversion per output ([11]).
    for (std::size_t s = 0; s < strips; ++s) {
      const std::size_t first = s * row_tiles_;
      auto& strip_head = tiles_[first];
      const std::size_t strip_outputs =
          strip_head.col_end - strip_head.col_begin;
      std::vector<double> acc(strip_outputs, 0.0);
      for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
        const auto& bitlines = raw[first + rt];
        for (std::size_t o = 0; o < strip_outputs; ++o) {
          // Each extra chained tile adds a small charge-transfer error.
          const double hop =
              rt == 0 ? 0.0
                      : hop_rng_.normal(0.0, config_.analog_hop_noise_rel);
          acc[o] += bitlines[o] * (1.0 + hop);
        }
      }
      double fs = 0.0;
      for (const double v : acc) fs = std::max(fs, std::abs(v));
      for (std::size_t o = 0; o < strip_outputs; ++o) {
        y[strip_head.col_begin + o] = static_cast<float>(
            Crossbar::adc_quantize(acc[o], fs, config_.crossbar.adc_bits));
      }
      strip_head.crossbar->charge_adc(strip_outputs);
    }
  } else {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const std::size_t col_begin = tiles_[t].col_begin;
      for (std::size_t o = 0; o < digitised[t].size(); ++o) {
        y[col_begin + o] += digitised[t][o];
      }
    }
    // Digital accumulation of row-tile partial sums + NoC transport of
    // each partial-output vector to the accumulating tile.
    const double partials =
        static_cast<double>(out_dim_) * static_cast<double>(row_tiles_);
    digital_energy_.add_pj("accumulate",
                           partials * config_.accumulate_energy_pj);
    if (row_tiles_ > 1) {
      digital_energy_.add_pj("noc", partials * config_.noc_energy_pj);
    }
  }
  last_mvm_energy_pj_ = total_energy_pj() - energy_before;
  return y;
}

CrossbarHealth TiledMatvec::health() const {
  CrossbarHealth total;
  for (const auto& slot : tiles_) total += slot.crossbar->health();
  return total;
}

double TiledMatvec::total_energy_pj() const {
  double total = digital_energy_.total_pj();
  for (const auto& slot : tiles_) total += slot.crossbar->energy().total_pj();
  return total;
}

double TiledMatvec::mvm_latency_ns() const {
  // Column tiles operate in parallel; the row tiles of one column chain
  // through the accumulator; partial sums hop once per row tile.
  return config_.tile_mvm_ns +
         static_cast<double>(row_tiles_ - 1) *
             (config_.tile_mvm_ns + config_.noc_hop_ns);
}

}  // namespace icsc::imc
