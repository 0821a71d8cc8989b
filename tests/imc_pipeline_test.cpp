#include "imc/pipeline.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <ostream>
#include <string>

#include "core/parallel.hpp"
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

/// FNV-1a over the bit patterns of every output element.
std::uint64_t output_bits(std::span<const float> y) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : y) {
    h ^= std::bit_cast<std::uint32_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string census(const CrossbarHealth& h) {
  return "sites=" + std::to_string(h.total_sites) +
         " stuck=" + std::to_string(h.stuck_sites) +
         " drift=" + std::to_string(h.drift_sites) +
         " unrepairable=" + std::to_string(h.unrepairable_sites) +
         " repaired=" + std::to_string(h.repaired_cells) +
         " unverified=" + std::to_string(h.unverified_cells) +
         " rounds=" + std::to_string(h.retry_rounds) +
         " wasted=" + std::to_string(h.wasted_pulses) +
         " bad_cols=" + std::to_string(h.bad_columns) +
         " remapped=" + std::to_string(h.remapped_columns) +
         " transients=" + std::to_string(h.transient_hits);
}

/// What one TiledMatvec computes: its programming, three successive reads,
/// and the energy and census they leave behind.
struct TiledRun {
  std::uint64_t pulses = 0;              // programming pulses, all tiles
  std::array<std::uint64_t, 3> reads{};  // output_bits of each matvec
  std::uint64_t energy_bits = 0;         // total_energy_pj() after the reads
  std::string census;

  bool operator==(const TiledRun&) const = default;
};

void PrintTo(const TiledRun& run, std::ostream* os) {
  *os << "pulses " << run.pulses << std::hex << ", reads 0x" << run.reads[0]
      << " 0x" << run.reads[1] << " 0x" << run.reads[2] << ", energy 0x"
      << run.energy_bits << std::dec << ", census \"" << run.census << "\"";
}

struct TiledCase {
  const char* name;
  std::size_t out, in;
  TileConfig config;
  double t_seconds;
  TiledRun golden;
};

TiledRun run_tiled(const TiledCase& c) {
  const auto w = random_weights(c.out, c.in, 31);
  TiledMatvec tiled(w, c.config);
  TiledRun run;
  // Before any read the energy is exactly pulses x energy per pulse.
  run.pulses = static_cast<std::uint64_t>(std::llround(
      tiled.total_energy_pj() / c.config.crossbar.device.program_energy_pj));
  core::Rng rng(37);
  for (auto& read : run.reads) {
    std::vector<float> x(c.in);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    read = output_bits(tiled.matvec(x, c.t_seconds));
  }
  run.energy_bits = std::bit_cast<std::uint64_t>(tiled.total_energy_pj());
  run.census = census(tiled.health());
  return run;
}

std::vector<TiledCase> tiled_cases() {
  // A ragged 3 x 3 PCM grid (90 inputs on 32-row tiles, 70 outputs on
  // 24-column tiles) with every fault kind, repair retries and two spare
  // columns, read after drift.
  TileConfig faulty;
  faulty.tile_rows = 32;
  faulty.tile_cols = 24;
  faulty.crossbar.device = pcm_spec();
  faulty.crossbar.seed = 77;
  faulty.crossbar.faults.stuck_at_rate = 0.002;
  faulty.crossbar.faults.drift_rate = 0.02;
  faulty.crossbar.faults.transient_rate = 0.01;
  faulty.crossbar.programming.max_pulses = 2;  // so retries repair cells
  faulty.crossbar.repair.max_retries = 1;
  faulty.crossbar.spare_columns = 2;
  // Analog accumulation over a 4-row-tile chain in two ragged strips.
  TileConfig chained;
  chained.tile_rows = 16;
  chained.tile_cols = 12;
  chained.analog_accumulation = true;
  chained.analog_hop_noise_rel = 0.01;
  return {
      {"e2ebench 128x128", 128, 128, TileConfig{}, 1.0,
       {82034,
        {0xe2ee2988986450dbULL, 0xc10d259e48787093ULL, 0xe3625cd6377b183aULL},
        0x412e0f807c84b5dcULL,
        "sites=32768 stuck=0 drift=0 unrepairable=0 repaired=0 unverified=0 "
        "rounds=0 wasted=0 bad_cols=0 remapped=0 transients=0"}},
      {"e2ebench 10x128", 10, 128, TileConfig{}, 1.0,
       {6513,
        {0x5d7f9110d8e88afcULL, 0x71a8f8168997825dULL, 0x214a3d4f6886bdebULL},
        0x40f317c24dd2f1aaULL,
        "sites=2560 stuck=0 drift=0 unrepairable=0 repaired=0 unverified=0 "
        "rounds=0 wasted=0 bad_cols=0 remapped=0 transients=0"}},
      {"ragged faulty PCM", 70, 90, faulty, 1e4,
       {38085,
        {0x167dbcff553f7369ULL, 0x3b6a4df2664efec3ULL, 0x48ed1ae4ddf50f78ULL},
        0x412d1246b851eb86ULL,
        "sites=13628 stuck=32 drift=261 unrepairable=32 repaired=5514 "
        "unverified=618 rounds=6164 wasted=96 bad_cols=31 remapped=17 "
        "transients=7"}},
      {"analog accumulation", 20, 64, chained, 1.0,
       {6705,
        {0x26adbde9156c3020ULL, 0x24544f330a40523cULL, 0x59205fd6a889a02aULL},
        0x40f3a7024dd2f1aaULL,
        "sites=2560 stuck=0 drift=0 unrepairable=0 repaired=0 unverified=0 "
        "rounds=0 wasted=0 bad_cols=0 remapped=0 transients=0"}},
  };
}

void expect_golden_runs(const std::string& where) {
  for (const auto& c : tiled_cases()) {
    const TiledRun run = run_tiled(c);
    EXPECT_EQ(run, c.golden) << where << ", " << c.name;
  }
}

TEST(TiledMatvec, ProgramAndReadBitsGolden) {
  // Programming and reads of four tile grids, pinned: every tile programs
  // from its own seeded stream in a fixed cell order, reads from its own
  // counter-based noise key, and the partial sums and hop noise fold in
  // strip and row-tile order, so no thread count may move a bit, a pulse
  // or a census count.
  expect_golden_runs("default pool");
}

TEST(TiledMatvec, NoiselessReadBitsGolden) {
  // The four grids with read noise off: programming is untouched, so
  // pulses, energy and census equal the noisy goldens, and the reads pin
  // the programmed conductances and the per-bitline FP sequence alone.
  const std::array<std::array<std::uint64_t, 3>, 4> reads = {{
      {0xd9e40d0e4acaf5e2ULL, 0x9bead082dd329438ULL, 0x99341dab337f5d0aULL},
      {0xc76d99e58b307022ULL, 0xef5108007335aae6ULL, 0x3991a0ffb6c7c0f2ULL},
      {0xf1a93ae542157f54ULL, 0xfd284c9e68eb0ccbULL, 0xde310228f557ddedULL},
      {0xc155844d4562bb69ULL, 0x87a9b11e2a55bfd0ULL, 0x443890647f52b3d3ULL},
  }};
  const auto cases = tiled_cases();
  ASSERT_EQ(cases.size(), reads.size());
  for (std::size_t k = 0; k < cases.size(); ++k) {
    TiledCase c = cases[k];
    c.config.crossbar.device.read_noise_rel = 0.0;
    c.golden.reads = reads[k];
    EXPECT_EQ(run_tiled(c), c.golden) << c.name;
  }
}

TEST(TiledMatvec, BitsIndependentOfThreadCount) {
  // Builds and reads each grid inline, then on 2 and 4 threads, so both
  // programming and reads run on the pool.
  {
    core::ScopedSerial serial;
    expect_golden_runs("serial");
  }
  for (const std::size_t threads : {2, 4}) {
    core::set_parallel_threads(threads);
    expect_golden_runs(std::to_string(threads) + " threads");
  }
  core::set_parallel_threads(0);
}

TEST(TiledMatvec, TileGridCoversMatrix) {
  TileConfig config;
  config.tile_rows = 16;
  config.tile_cols = 16;
  const auto w = random_weights(40, 50, 1);
  TiledMatvec tiled(w, config);
  // ceil(50/16) * ceil(40/16) = 4 * 3.
  EXPECT_EQ(tiled.tile_count(), 12u);
  EXPECT_EQ(tiled.in_dim(), 50u);
  EXPECT_EQ(tiled.out_dim(), 40u);
}

TEST(TiledMatvec, MatchesSingleCrossbarAccuracy) {
  TileConfig config;
  config.tile_rows = 8;
  config.tile_cols = 8;
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  const auto w = random_weights(16, 24, 3);
  TiledMatvec tiled(w, config);
  core::Rng rng(4);
  double sq = 0.0;
  int count = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> x(24);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto exact = core::matvec(w, std::span<const float>(x));
    const auto got = tiled.matvec(x);
    for (std::size_t o = 0; o < exact.size(); ++o) {
      sq += (got[o] - exact[o]) * (got[o] - exact[o]);
      ++count;
    }
  }
  EXPECT_LT(std::sqrt(sq / count), 0.5);
}

TEST(TiledMatvec, EnergyIncludesNocForMultiRowTiles) {
  TileConfig mono;
  mono.tile_rows = 64;
  mono.tile_cols = 64;
  TileConfig split = mono;
  split.tile_rows = 8;
  const auto w = random_weights(16, 32, 5);
  TiledMatvec a(w, mono);
  TiledMatvec b(w, split);
  std::vector<float> x(32, 0.4F);
  a.matvec(x);
  b.matvec(x);
  // Splitting rows requires digital accumulation + NoC traffic.
  EXPECT_GT(b.mvm_energy_pj(), a.mvm_energy_pj() * 0.5);
  EXPECT_GT(b.mvm_latency_ns(), a.mvm_latency_ns());
}

TEST(ImcExperiment, VerifyProgrammingPreservesAccuracy) {
  TileConfig config;
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  const auto point = run_imc_experiment(config, 1.0, 42);
  EXPECT_GT(point.software_accuracy, 0.95);
  EXPECT_GT(point.imc_accuracy, point.software_accuracy - 0.05);
  EXPECT_GT(point.energy_per_inference_nj, 0.0);
}

TEST(ImcExperiment, SinglePulseDegradesAccuracy) {
  TileConfig verify;
  verify.crossbar.programming.scheme = ProgramScheme::kVerify;
  TileConfig naive;
  naive.crossbar.programming.scheme = ProgramScheme::kSinglePulse;
  const auto p_verify = run_imc_experiment(verify, 1.0, 42);
  const auto p_naive = run_imc_experiment(naive, 1.0, 42);
  EXPECT_LT(p_naive.imc_accuracy, p_verify.imc_accuracy);
}

TEST(ImcExperiment, PcmDriftErodesAccuracyOverTime) {
  TileConfig config;
  config.crossbar.device = pcm_spec();
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  const auto fresh = run_imc_experiment(config, 1.0, 42);
  const auto month = run_imc_experiment(config, 2.6e6, 42);
  EXPECT_LE(month.imc_accuracy, fresh.imc_accuracy + 0.02);
  // A month of PCM drift should visibly hurt.
  EXPECT_LT(month.imc_accuracy, fresh.imc_accuracy);
}

TEST(ImcExperiment, RramRobustToDrift) {
  TileConfig config;
  config.crossbar.device = rram_spec();
  config.crossbar.programming.scheme = ProgramScheme::kVerify;
  const auto fresh = run_imc_experiment(config, 1.0, 42);
  const auto month = run_imc_experiment(config, 2.6e6, 42);
  EXPECT_GT(month.imc_accuracy, fresh.imc_accuracy - 0.05);
}

TEST(Backends, AnalogVsDimcVsDigitalEnergyOrdering) {
  // Wide layers: the per-column ADC cost amortises over 64 rows, which is
  // the regime where analog accumulation wins (Sec. IV / [11]).
  const auto data = core::make_gaussian_clusters(30, 4, 64, 0.3, 7);
  core::Mlp mlp({64, 64, 4}, 7);
  mlp.train(data, 0.05F, 40, 0.99);

  TileConfig analog_config;
  AnalogMlpBackend analog(mlp, analog_config);
  DimcMlpBackend dimc(mlp, DimcConfig{});

  const double analog_prog = analog.total_energy_pj();  // programming cost
  core::accuracy_with_override(mlp, data, analog);
  core::accuracy_with_override(mlp, data, dimc);
  const double analog_inference =
      (analog.total_energy_pj() - analog_prog) /
      static_cast<double>(analog.total_ops());
  const double dimc_inference =
      dimc.total_energy_pj() / static_cast<double>(dimc.total_ops());
  const double digital_inference = digital_baseline_mac_energy_pj() / 2.0;
  // Sec. IV ordering: analog IMC < DIMC < conventional digital per op.
  EXPECT_LT(analog_inference, dimc_inference);
  EXPECT_LT(dimc_inference, digital_inference);
}

TEST(Backends, DimcMatchesSoftwareAccuracy) {
  const auto data = core::make_gaussian_clusters(30, 4, 16, 0.3, 9);
  core::Mlp mlp({16, 32, 4}, 9);
  mlp.train(data, 0.05F, 40, 0.99);
  DimcMlpBackend dimc(mlp, DimcConfig{});
  const double acc = core::accuracy_with_override(mlp, data, dimc);
  EXPECT_GT(acc, mlp.accuracy(data) - 0.03);
}

class AdcBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdcBitsSweep, AccuracyImprovesWithResolution) {
  TileConfig config;
  config.crossbar.adc_bits = GetParam();
  const auto point = run_imc_experiment(config, 1.0, 11);
  if (GetParam() >= 6) {
    EXPECT_GT(point.imc_accuracy, point.software_accuracy - 0.08);
  }
  // Record-keeping assertion: experiment runs and yields sane numbers.
  EXPECT_GE(point.imc_accuracy, 0.0);
  EXPECT_LE(point.imc_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, AdcBitsSweep,
                         ::testing::Values(2, 4, 6, 8, 10));

}  // namespace
}  // namespace icsc::imc
