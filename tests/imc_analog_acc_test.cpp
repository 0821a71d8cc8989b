// Analog accumulation across tiles (Sec. IV, [11]): fewer A/D conversions.
#include <gtest/gtest.h>

#include <cmath>

#include "imc/pipeline.hpp"
#include "imc/tile.hpp"

namespace icsc::imc {
namespace {

core::TensorF random_weights(std::size_t out, std::size_t in,
                             std::uint64_t seed) {
  core::Rng rng(seed);
  core::TensorF w({out, in});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  return w;
}

double matvec_rmse(TiledMatvec& tiled, const core::TensorF& w, int trials,
                   std::uint64_t seed) {
  core::Rng rng(seed);
  double sq = 0.0;
  int count = 0;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> x(w.dim(1));
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto exact = core::matvec(w, std::span<const float>(x));
    const auto got = tiled.matvec(x);
    for (std::size_t o = 0; o < exact.size(); ++o) {
      sq += (got[o] - exact[o]) * (got[o] - exact[o]);
      ++count;
    }
  }
  return std::sqrt(sq / count);
}

TileConfig split_config(bool analog_acc) {
  TileConfig config;
  config.tile_rows = 16;  // 64-input matrix -> 4 row tiles per strip
  config.tile_cols = 64;
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  config.analog_accumulation = analog_acc;
  return config;
}

TEST(AnalogAccumulation, AccuracyComparableToDigital) {
  const auto w = random_weights(16, 64, 3);
  TiledMatvec digital(w, split_config(false));
  TiledMatvec analog(w, split_config(true));
  const double rmse_digital = matvec_rmse(digital, w, 15, 5);
  const double rmse_analog = matvec_rmse(analog, w, 15, 5);
  // The chained accumulation costs a little accuracy but stays usable.
  EXPECT_LT(rmse_analog, 3.0 * rmse_digital + 0.05);
}

TEST(AnalogAccumulation, CutsAdcEnergy) {
  const auto w = random_weights(16, 64, 7);
  TiledMatvec digital(w, split_config(false));
  TiledMatvec analog(w, split_config(true));
  std::vector<float> x(64, 0.4F);
  digital.matvec(x);
  analog.matvec(x);
  // 4 row tiles -> 4x fewer conversions; NoC/accumulate energy also gone.
  EXPECT_LT(analog.mvm_energy_pj(), 0.55 * digital.mvm_energy_pj());
}

TEST(AnalogAccumulation, SingleRowTileIsEquivalentPath) {
  const auto w = random_weights(8, 16, 9);
  TileConfig config;
  config.tile_rows = 64;  // single tile
  config.tile_cols = 64;
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  config.analog_accumulation = true;
  TiledMatvec tiled(w, config);
  EXPECT_EQ(tiled.tile_count(), 1u);
  const double rmse = matvec_rmse(tiled, w, 10, 11);
  EXPECT_LT(rmse, 0.3);
}

TEST(AnalogAccumulation, EndToEndDnnAccuracyHolds) {
  TileConfig config = split_config(true);
  config.tile_rows = 8;  // force multi-tile strips on the 16-input layer
  const auto point = run_imc_experiment(config, 1.0, 42);
  EXPECT_GT(point.imc_accuracy, point.software_accuracy - 0.05);
}

TEST(AnalogAccumulation, HopNoiseGrowsWithChainLength) {
  const auto w = random_weights(8, 128, 13);
  TileConfig two_hops = split_config(true);
  two_hops.tile_rows = 64;
  two_hops.analog_hop_noise_rel = 0.05;  // exaggerated for visibility
  TileConfig many_hops = two_hops;
  many_hops.tile_rows = 16;
  TiledMatvec short_chain(w, two_hops);
  TiledMatvec long_chain(w, many_hops);
  EXPECT_GT(matvec_rmse(long_chain, w, 20, 15),
            matvec_rmse(short_chain, w, 20, 15));
}

}  // namespace
}  // namespace icsc::imc
