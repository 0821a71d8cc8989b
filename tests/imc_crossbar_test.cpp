#include "imc/crossbar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "imc/dimc.hpp"

namespace icsc::imc {
namespace {

core::TensorF random_weights(std::size_t out, std::size_t in,
                             std::uint64_t seed) {
  core::Rng rng(seed);
  core::TensorF w({out, in});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  return w;
}

CrossbarConfig near_ideal_config() {
  CrossbarConfig config;
  config.device = rram_spec();
  config.device.program_sigma_rel = 0.0;
  config.device.read_noise_rel = 0.0;
  config.device.drift_nu = 0.0;
  config.device.drift_nu_sigma = 0.0;
  config.programming.scheme = ProgramScheme::kVerify;
  config.programming.tolerance_rel = 1e-5;
  config.programming.max_pulses = 200;
  config.dac_bits = 0;   // ideal DAC
  config.adc_bits = 0;   // ideal sensing
  return config;
}

TEST(Crossbar, NearIdealMatchesExactMatvec) {
  const auto w = random_weights(8, 16, 1);
  // The noise floor (0.003 * range per pulse) bounds achievable precision;
  // verify convergence brings RMSE to a small fraction of the weight scale.
  const double rmse = crossbar_mvm_rmse(w, near_ideal_config(), 20, 1.0, 2);
  EXPECT_LT(rmse, 0.05);
}

TEST(Crossbar, MoreAdcBitsMoreAccuracy) {
  const auto w = random_weights(8, 16, 3);
  auto config = near_ideal_config();
  config.adc_bits = 4;
  const double rmse4 = crossbar_mvm_rmse(w, config, 20, 1.0, 4);
  config.adc_bits = 10;
  const double rmse10 = crossbar_mvm_rmse(w, config, 20, 1.0, 4);
  EXPECT_LT(rmse10, rmse4);
}

TEST(Crossbar, ReadNoiseRaisesError) {
  const auto w = random_weights(8, 16, 5);
  auto quiet = near_ideal_config();
  auto noisy = near_ideal_config();
  noisy.device.read_noise_rel = 0.05;
  EXPECT_GT(crossbar_mvm_rmse(w, noisy, 20, 1.0, 6),
            crossbar_mvm_rmse(w, quiet, 20, 1.0, 6));
}

TEST(Crossbar, PcmDriftDegradesOverTime) {
  const auto w = random_weights(8, 16, 7);
  CrossbarConfig config;
  config.device = pcm_spec();
  config.programming.scheme = ProgramScheme::kVerify;
  const double rmse_fresh = crossbar_mvm_rmse(w, config, 20, 1.0, 8);
  const double rmse_day = crossbar_mvm_rmse(w, config, 20, 86400.0, 8);
  EXPECT_GT(rmse_day, 1.5 * rmse_fresh);
}

TEST(Crossbar, VerifyProgrammingBeatsSinglePulse) {
  const auto w = random_weights(8, 16, 9);
  CrossbarConfig verify;
  verify.device = rram_spec();
  verify.programming.scheme = ProgramScheme::kVerify;
  CrossbarConfig naive = verify;
  naive.programming.scheme = ProgramScheme::kSinglePulse;
  EXPECT_LT(crossbar_mvm_rmse(w, verify, 30, 1.0, 10),
            crossbar_mvm_rmse(w, naive, 30, 1.0, 10));
}

TEST(Crossbar, IrDropBiasesResult) {
  const auto w = random_weights(4, 64, 11);
  auto ideal = near_ideal_config();
  auto droopy = near_ideal_config();
  droopy.ir_drop_per_row = 2e-3;
  EXPECT_GT(crossbar_mvm_rmse(w, droopy, 20, 1.0, 12),
            crossbar_mvm_rmse(w, ideal, 20, 1.0, 12));
}

TEST(Crossbar, EnergyAccumulatesPerMvm) {
  const auto w = random_weights(8, 8, 13);
  CrossbarConfig config;
  config.device = rram_spec();
  Crossbar xbar(w, config);
  const double programming = xbar.energy().total_pj();
  EXPECT_GT(programming, 0.0);
  std::vector<float> x(8, 0.5F);
  xbar.matvec(x);
  const double after_one = xbar.energy().total_pj();
  EXPECT_GT(after_one, programming);
  xbar.matvec(x);
  EXPECT_GT(xbar.energy().total_pj(), after_one);
  EXPECT_GT(xbar.energy().component_pj("adc"), 0.0);
}

TEST(Crossbar, ProgrammingPulsesCounted) {
  const auto w = random_weights(4, 4, 15);
  CrossbarConfig config;
  config.programming.scheme = ProgramScheme::kFixedPulses;
  config.programming.fixed_pulses = 3;
  Crossbar xbar(w, config);
  // 4x4 differential pairs, 3 pulses each: 2 * 16 * 3.
  EXPECT_EQ(xbar.programming_pulses(), 96u);
}

TEST(Crossbar, OpsPerMvm) {
  const auto w = random_weights(8, 16, 17);
  Crossbar xbar(w, CrossbarConfig{});
  EXPECT_EQ(xbar.ops_per_mvm(), 2ull * 8 * 16);
}

/// Noisy, drifting, glitching config: every stochastic read path is live,
/// so any divergence in RNG draw order shows up immediately.
CrossbarConfig noisy_pcm_config() {
  CrossbarConfig config;
  config.device = pcm_spec();
  config.ir_drop_per_row = 1e-4;
  config.adc_bits = 0;
  config.seed = 11;
  config.faults.stuck_at_rate = 0.02;
  config.faults.drift_rate = 0.02;
  config.faults.transient_rate = 0.05;
  return config;
}

/// Five successive matvec_raw calls at t = 10 s: the outputs in call order.
std::vector<double> raw_mvm_trace(Crossbar& xbar, std::uint64_t input_seed) {
  core::Rng in_rng(input_seed);
  std::vector<double> trace;
  std::vector<float> x(xbar.rows());
  for (int m = 0; m < 5; ++m) {
    for (auto& v : x) v = static_cast<float>(in_rng.uniform(-1.0, 1.0));
    const auto y = xbar.matvec_raw(x, 10.0);
    trace.insert(trace.end(), y.begin(), y.end());
  }
  return trace;
}

void expect_trace(const std::vector<double>& got,
                  const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "output " << i;
  }
}

// Golden raw-MVM outputs, exact to the bit: they pin the RNG draw order,
// the per-bitline FP sequence, the fault overlay and the spare remap of
// the read loop, independently of how that loop is written.
TEST(Crossbar, RawMvmGoldenNoisyPcmWithSpares) {
  auto config = noisy_pcm_config();
  config.spare_columns = 2;
  Crossbar xbar(random_weights(6, 10, 7), config);
  ASSERT_EQ(xbar.health().remapped_columns, 1u);  // a spare column is read
  expect_trace(raw_mvm_trace(xbar, 29), {
      -0.96518324896415153, -0.0079743442999245587, -0.35050936237032626,
      -0.3584514991005921, -2.6137315790278759, 0.50455360543493599,
      -0.10656348711380696, -0.99413586025285128, -0.53779444446869484,
      0.54905955620660074, 0.43179952420610368, 0.13210386284364573,
      1.0156838418166623, 0.45634040533403725, -0.30539816075183829,
      0.044635350554590648, -1.1594662755475722, -0.79795536240977605,
      0.30787760622700094, 1.1287838519560625, 0.84281327974007991,
      0.110407271634523, 0.40530118229086692, 0.86963100480974009,
      0.35015757199075065, 0.68972206047793017, 0.47398157705275951,
      -0.47651908209359539, 2.4350319370813485, 0.47363215753286503});
  EXPECT_EQ(xbar.energy().total_pj(), 12800.719999999999);
  EXPECT_EQ(xbar.health().transient_hits, 3u);
}

TEST(Crossbar, RawMvmGoldenSingleEndedRram) {
  CrossbarConfig config;
  config.differential = false;
  config.ir_drop_per_row = 1e-3;
  config.adc_bits = 0;
  config.seed = 5;
  Crossbar xbar(random_weights(3, 7, 3), config);
  expect_trace(raw_mvm_trace(xbar, 31), {
      0.19441853646721963, 0.98702519707508285, 0.075871946905575749,
      0.32701892150446982, -0.12422129031283631, 0.05392036760927444,
      0.56280140034294923, 0.44119114415347815, 0.094795275517971081,
      -0.30347825958551822, -0.41468886334699551, 0.045397286258712144,
      0.21451414281572437, -0.10277289017078964, 0.016931690120230349});
  EXPECT_EQ(xbar.energy().total_pj(), 612.08399999999995);
  EXPECT_EQ(xbar.health().transient_hits, 0u);
}

TEST(Dimc, ExactAtFullPrecisionInputs) {
  const auto w = random_weights(8, 16, 19);
  DimcConfig config;
  config.weight_bits = 8;
  config.input_bits = 12;
  DimcMacro macro(w, config);
  core::Rng rng(20);
  std::vector<float> x(16);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto exact = core::matvec(w, std::span<const float>(x));
  const auto got = macro.matvec(x);
  for (std::size_t o = 0; o < exact.size(); ++o) {
    EXPECT_NEAR(got[o], exact[o], 0.05 * std::abs(exact[o]) + 0.05);
  }
}

TEST(Dimc, QuantizationErrorShrinksWithBits) {
  const auto w = random_weights(8, 32, 21);
  core::Rng rng(22);
  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto exact = core::matvec(w, std::span<const float>(x));
  auto rmse_for_bits = [&](int bits) {
    DimcConfig config;
    config.weight_bits = bits;
    DimcMacro macro(w, config);
    const auto got = macro.matvec(x);
    double sq = 0.0;
    for (std::size_t o = 0; o < exact.size(); ++o) {
      sq += (got[o] - exact[o]) * (got[o] - exact[o]);
    }
    return std::sqrt(sq / static_cast<double>(exact.size()));
  };
  EXPECT_LT(rmse_for_bits(8), rmse_for_bits(2));
}

TEST(Dimc, EnergyScalesWithWork) {
  const auto w_small = random_weights(8, 8, 23);
  const auto w_large = random_weights(32, 32, 23);
  DimcConfig config;
  DimcMacro small(w_small, config);
  DimcMacro large(w_large, config);
  std::vector<float> x8(8, 0.3F), x32(32, 0.3F);
  small.matvec(x8);
  large.matvec(x32);
  EXPECT_GT(large.energy().total_pj(), 10.0 * small.energy().total_pj());
}

TEST(Dimc, EfficiencyInPublishedEnvelope) {
  // [8]: 40-310 TOPS/W for the SRAM DIMC macro family.
  const auto w = random_weights(64, 64, 25);
  DimcConfig config;
  DimcMacro macro(w, config);
  const double tops_w = macro.tops_per_watt(500.0, 2.0);
  EXPECT_GT(tops_w, 40.0);
  EXPECT_LT(tops_w, 400.0);
}

}  // namespace
}  // namespace icsc::imc
