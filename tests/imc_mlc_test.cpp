#include "imc/mlc.hpp"

#include <gtest/gtest.h>


namespace icsc::imc {
namespace {

TEST(ReliableLevels, VerifySupportsMoreLevelsThanSinglePulse) {
  const auto spec = rram_spec();
  ProgramVerifyConfig naive;
  naive.scheme = ProgramScheme::kSinglePulse;
  ProgramVerifyConfig verify;
  verify.scheme = ProgramScheme::kVerify;
  verify.tolerance_rel = 0.005;
  verify.max_pulses = 40;
  const int naive_levels = reliable_levels(spec, naive, 1000, 3);
  const int verify_levels = reliable_levels(spec, verify, 1000, 3);
  EXPECT_GT(verify_levels, naive_levels);
  EXPECT_GE(naive_levels, 2);
  // MLC operation (>= 4 levels / 2 bits per cell) requires verify.
  EXPECT_GE(verify_levels, 4);
}

TEST(DriftCompensator, EstimatesPcmDecay) {
  ProgramVerifyConfig pv;
  pv.scheme = ProgramScheme::kVerify;
  DriftCompensator comp(pcm_spec(), pv, 64, 11);
  const double fresh = comp.decay_estimate(1.0);
  EXPECT_NEAR(fresh, 1.0, 0.05);
  const double day = comp.decay_estimate(86400.0);
  // nu ~ 0.05: t^-nu at one day ~ exp(-0.05 * ln 86400) ~ 0.57.
  EXPECT_LT(day, 0.75);
  EXPECT_GT(day, 0.35);
}

TEST(DriftCompensator, CompensateRescales) {
  ProgramVerifyConfig pv;
  DriftCompensator comp(pcm_spec(), pv, 64, 13);
  std::vector<float> y{1.0F, -2.0F};
  const double decay = comp.decay_estimate(86400.0);
  comp.compensate(y, 86400.0);
  EXPECT_NEAR(y[0], 1.0F / decay, 0.15);
  EXPECT_LT(y[1], -1.0F);
}

TEST(DriftCompensation, RestoresPcmAccuracyAtOneMonth) {
  const auto result = run_drift_compensation_experiment(2.6e6, 42);
  EXPECT_LT(result.decay_estimate, 0.7);
  EXPECT_GT(result.accuracy_compensated, result.accuracy_uncompensated);
  EXPECT_GT(result.accuracy_compensated, 0.9);
}

TEST(DriftCompensation, NoOpWhenFresh) {
  const auto result = run_drift_compensation_experiment(1.0, 42);
  EXPECT_NEAR(result.decay_estimate, 1.0, 0.05);
  EXPECT_NEAR(result.accuracy_compensated, result.accuracy_uncompensated, 0.03);
}

}  // namespace
}  // namespace icsc::imc
