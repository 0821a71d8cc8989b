#include "imc/crossbar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "core/fault.hpp"
#include "core/simd.hpp"
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
/// so any divergence in the noise keying or the fault overlay shows up
/// immediately.
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

/// Five successive matvec_raw calls at t_seconds: the outputs in call
/// order.
std::vector<double> raw_mvm_trace(Crossbar& xbar, std::uint64_t input_seed,
                                  double t_seconds = 10.0) {
  core::Rng in_rng(input_seed);
  std::vector<double> trace;
  std::vector<float> x(xbar.rows());
  for (int m = 0; m < 5; ++m) {
    for (auto& v : x) v = static_cast<float>(in_rng.uniform(-1.0, 1.0));
    const auto y = xbar.matvec_raw(x, t_seconds);
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

// Golden raw-MVM outputs, exact to the bit: they pin the counter-based
// read-noise stream, the per-bitline FP sequence, the fault overlay and
// the spare remap of the read loop, independently of how that loop is
// written.
TEST(Crossbar, RawMvmGoldenNoisyPcmWithSpares) {
  auto config = noisy_pcm_config();
  config.spare_columns = 2;
  Crossbar xbar(random_weights(6, 10, 7), config);
  ASSERT_EQ(xbar.health().remapped_columns, 1u);  // a spare column is read
  expect_trace(raw_mvm_trace(xbar, 29), {
      -0.95500507091905751, -0.014676319507613068, -0.34104104175880978,
      -0.35930128250098725, -2.6254807251787446, 0.49207322435768347,
      -0.11956872804834602, -0.98884715255454159, -0.4988810368340359,
      0.57143097592368197, 0.41244131303986947, 0.12873448990081315,
      1.0282039227630819, 0.47398805561761542, -0.31966089885839899,
      0.032383564636931227, -1.1412541454746363, -0.81091019833345523,
      0.30807820450325407, 1.1239137243373725, 0.80827785509788475,
      0.12533211094020588, 0.39453481927766215, 0.867390182305802,
      0.36760816810547603, 0.70962275189669222, 0.49018214410736749,
      -0.473252093812285, 2.4540881937996533, 0.45845795162080366});
  EXPECT_EQ(xbar.energy().total_pj(), 12800.719999999999);
  EXPECT_EQ(xbar.health().transient_hits, 3u);
}

// The same noisy PCM array with read noise off: the outputs pin the
// programmed state, drift, the fault overlay, the spare remap, the
// transient glitches and the per-bitline FP sequence, independently of
// the read-noise stream.
TEST(Crossbar, RawMvmGoldenNoiselessReads) {
  auto config = noisy_pcm_config();
  config.spare_columns = 2;
  config.device.read_noise_rel = 0.0;
  Crossbar xbar(random_weights(6, 10, 7), config);
  ASSERT_EQ(xbar.health().remapped_columns, 1u);
  expect_trace(raw_mvm_trace(xbar, 29), {
      -0.96178717668901204, -0.007080145918878844, -0.34514074508773757,
      -0.37178080403979819, -2.6017645161801264, 0.50681667787248874,
      -0.1036019684905632, -0.9800812756173588, -0.5080131861692142,
      0.55541319304898495, 0.42537835215304648, 0.10312892063914929,
      1.0173194059361601, 0.46184095455674529, -0.31565943897058585,
      0.048880949677857034, -1.1597153631586452, -0.80836644565863081,
      0.3052707936643318, 1.1203695355539902, 0.85394567686020051,
      0.1156759366954556, 0.38416535876012681, 0.87766335675650842,
      0.35269615883403632, 0.70513833458485431, 0.48922102357460318,
      -0.49192939949404596, 2.4570142616626454, 0.47040147674887139});
  // At t = 1 s nothing drifts, but stuck cells still read their pinned
  // conductance and transients still flip a bitline: these banks must not
  // take the fault-free read loop.
  expect_trace(raw_mvm_trace(xbar, 31, 1.0), {
      0.44158231850928675, 0.69206396468486997, 1.3300319818299862,
      -0.73824679460417031, -0.40150980252815305, 1.8164161877096816,
      -0.62277520655670726, 0.042324763315877111, 1.7438267625376478,
      -1.633557777460918, -0.69156731025290352, 1.4263452959058327,
      0.83047124397216499, 0.055921779655097544, -0.13156085436856441,
      -0.27346509046276479, 1.5632989958981263, 0.40750466990829143,
      0.33125126702334212, -1.4843596658396823, 0.017282530905465322,
      -0.18937454125317402, -0.34801806193983786, 0.84222416012265122,
      -0.62390536851943112, 0.27883489395777356, 1.6900960360346127,
      -1.9737459482365141, 0.44839986326697145, -0.091386974101847721});
  EXPECT_EQ(xbar.energy().total_pj(), 12801.440000000001);
  EXPECT_EQ(xbar.health().transient_hits, 5u);
}

TEST(Crossbar, RawMvmGoldenSingleEndedRram) {
  CrossbarConfig config;
  config.differential = false;
  config.ir_drop_per_row = 1e-3;
  config.adc_bits = 0;
  config.seed = 5;
  Crossbar xbar(random_weights(3, 7, 3), config);
  expect_trace(raw_mvm_trace(xbar, 31), {
      0.20178884861581101, 1.0016294905293497, 0.075618020458348589,
      0.32314978643485426, -0.12295634007155841, 0.054051020855368823,
      0.56254701607604163, 0.43842478479071401, 0.095764245204217655,
      -0.30678528071579841, -0.42257599461824563, 0.045572884654685328,
      0.2129344042236273, -0.10715357710866161, 0.017321639043232095});
  EXPECT_EQ(xbar.energy().total_pj(), 612.08399999999995);
  EXPECT_EQ(xbar.health().transient_hits, 0u);
}

/// A single-ended crossbar with an ideal DAC and ideal wires: a one-hot
/// input reads one cell per bitline, so raw outputs are g (1 + sigma z)
/// over the weight scale.
CrossbarConfig single_ended_rram(double read_noise_rel) {
  CrossbarConfig config;
  config.differential = false;
  config.dac_bits = 0;
  config.adc_bits = 0;
  config.seed = 9;
  config.device.read_noise_rel = read_noise_rel;
  return config;
}

TEST(Crossbar, ReadNoiseHasCorrectScale) {
  // The crossbar twin of MemoryCell.ReadNoiseHasCorrectScale: repeated
  // reads of a 1 x 1 array spread by read_noise_rel around the noiseless
  // read.
  for (const double sigma : {rram_spec().read_noise_rel,
                             pcm_spec().read_noise_rel}) {
    const core::TensorF w({1, 1}, 1.0F);
    Crossbar quiet(w, single_ended_rram(0.0));
    Crossbar noisy(w, single_ended_rram(sigma));
    const std::vector<float> x{1.0F};
    const double g = quiet.matvec_raw(x)[0];
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const double r = noisy.matvec_raw(x)[0];
      sum += r;
      sum_sq += r * r;
    }
    const double mean = sum / n;
    const double stddev = std::sqrt(sum_sq / n - mean * mean);
    EXPECT_NEAR(mean, g, 0.01 * g);
    EXPECT_NEAR(stddev / g, sigma, 0.002);
  }
}

TEST(Crossbar, ReadNoiseFollowsTheCounterContract) {
  // MVM m of the crossbar scales the cell in row i of column o by
  // 1 + sigma z0, z0 from the pair of fault_hash(k_m, o * rows + i), with
  // k_m = fault_hash(fault_hash(seed, kReadNoiseDomain), m). A noiseless
  // twin (same seed, so the same programmed cells) divides it out.
  core::TensorF w({2, 3});
  for (std::size_t k = 0; k < 6; ++k) {
    w.data()[k] = 0.2F + 0.1F * static_cast<float>(k);
  }
  const double sigma = 0.05;
  Crossbar quiet(w, single_ended_rram(0.0));
  Crossbar noisy(w, single_ended_rram(sigma));
  const std::uint64_t read_key = core::fault_hash(9, kReadNoiseDomain);
  for (std::uint64_t m = 0; m < 6; ++m) {
    const std::size_t i = m % 3;
    std::vector<float> x(3, 0.0F);
    x[i] = 1.0F;
    const auto want = quiet.matvec_raw(x);
    const auto got = noisy.matvec_raw(x);
    for (std::size_t o = 0; o < 2; ++o) {
      double z0 = 0.0;
      double z1 = 0.0;
      core::simd::normal_pairs(core::fault_hash(read_key, m), o * 3 + i, 1,
                               &z0, &z1);
      EXPECT_NEAR((got[o] / want[o] - 1.0) / sigma, z0, 1e-9)
          << "mvm " << m << " column " << o;
    }
  }
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
