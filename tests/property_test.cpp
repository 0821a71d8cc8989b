// Cross-cutting property sweeps (TEST_P): arithmetic-law bounds for the
// number formats, metric properties for the distance kernels, and
// conservation/monotonicity invariants the simulators must respect for
// ANY parameter choice in their domain.
#include <gtest/gtest.h>

#include <cmath>

#include "approx/conv.hpp"
#include "core/bfloat16.hpp"
#include "core/rng.hpp"
#include "hetero/dna/edit_distance.hpp"
#include "hetero/dna/prefilter.hpp"
#include "hls/pipelining.hpp"
#include "imc/crossbar.hpp"
#include "scf/compute_unit.hpp"

namespace {

using namespace icsc;

// ---------------------------------------------------------------- formats

class NumberFormatLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NumberFormatLaws, QuantConfigIsMonotoneAndSaturates) {
  // The 16-bit formats every conv path quantises to: Q7.8 activations and
  // Q3.12 weights, each saturating at its two's-complement bounds.
  struct Format {
    float (approx::QuantConfig::*quantize)(float) const;
    float lo, hi;
  };
  const Format formats[] = {
      {&approx::QuantConfig::quantize_activation, -128.0F, 32767.0F / 256.0F},
      {&approx::QuantConfig::quantize_weight, -8.0F, 32767.0F / 4096.0F}};
  const approx::QuantConfig config;
  core::Rng rng(GetParam());
  for (const auto& f : formats) {
    const auto quantize = [&](float v) { return (config.*f.quantize)(v); };
    // Draws reach twice past either bound, so saturation is exercised too.
    const double reach = 2.0 * -f.lo;
    for (int i = 0; i < 500; ++i) {
      const auto a = static_cast<float>(rng.uniform(-reach, reach));
      const auto b = static_cast<float>(rng.uniform(-reach, reach));
      const float qa = quantize(a), qb = quantize(b);
      if (a <= b) {
        EXPECT_LE(qa, qb);
      } else {
        EXPECT_GE(qa, qb);
      }
      EXPECT_GE(qa, f.lo);
      EXPECT_LE(qa, f.hi);
      if (a >= f.hi) {
        EXPECT_EQ(qa, f.hi);
      } else if (a <= f.lo) {
        EXPECT_EQ(qa, f.lo);
      }
    }
    EXPECT_EQ(quantize(1e30F), f.hi);
    EXPECT_EQ(quantize(-1e30F), f.lo);
  }
}

TEST_P(NumberFormatLaws, Bf16RoundingIsMonotoneAndBounded) {
  core::Rng rng(GetParam() ^ 0xBF16);
  float prev_in = -1e30F, prev_out = -1e30F;
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 1e3));
    const float r = core::bf16_round(v);
    if (v != 0.0F) {
      EXPECT_LE(std::abs(r - v) / std::abs(v), 1.0F / 256.0F);
    }
    (void)prev_in;
    (void)prev_out;
  }
  // Explicit monotone pairs.
  for (int i = 0; i < 200; ++i) {
    const float a = static_cast<float>(rng.normal(0.0, 10.0));
    const float b = a + std::abs(static_cast<float>(rng.normal(0.0, 1.0)));
    EXPECT_LE(core::bf16_round(a), core::bf16_round(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumberFormatLaws,
                         ::testing::Values(1u, 42u, 777u));

// ------------------------------------------------------------ edit metric

class EditDistanceProperties : public ::testing::TestWithParam<int> {};

TEST_P(EditDistanceProperties, MyersSatisfiesMetricAxioms) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()));
  using hetero::dna::levenshtein_myers;
  for (int trial = 0; trial < 30; ++trial) {
    hetero::dna::Strand a(20 + rng.below(100)), b(20 + rng.below(100)),
        c(20 + rng.below(100));
    for (auto& x : a) x = static_cast<hetero::dna::Base>(rng.below(4));
    for (auto& x : b) x = static_cast<hetero::dna::Base>(rng.below(4));
    for (auto& x : c) x = static_cast<hetero::dna::Base>(rng.below(4));
    const int dab = levenshtein_myers(a, b);
    EXPECT_EQ(dab, levenshtein_myers(b, a));
    EXPECT_EQ(levenshtein_myers(a, a), 0);
    EXPECT_LE(levenshtein_myers(a, c), dab + levenshtein_myers(b, c));
    // Lower bounds never exceed the metric.
    EXPECT_LE(hetero::dna::length_lower_bound(a, b), dab);
    EXPECT_LE(hetero::dna::qgram_lower_bound(a, b, 4), dab);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperties,
                         ::testing::Values(11, 23, 87));

// -------------------------------------------------------------- pipelines

class PipeliningInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipeliningInvariants, IiBoundsAndThroughputDominance) {
  const auto [nnz, units] = GetParam();
  const auto kernel = hls::make_spmv_row_kernel(nnz);
  hls::ResourceBudget budget;
  budget.alus = units;
  budget.muls = units;
  budget.mem_ports = units;
  const auto pipelined = hls::schedule_pipelined(kernel, budget);
  EXPECT_TRUE(hls::pipelined_schedule_is_valid(kernel, pipelined, budget));
  // II is never below the resource bound, never above the sequential
  // makespan (a trivial II = makespan schedule always exists).
  const auto sequential = hls::schedule_list(kernel, budget);
  EXPECT_GE(pipelined.ii, hls::min_initiation_interval(kernel, budget));
  EXPECT_LE(pipelined.ii, std::max(1, sequential.makespan));
  // Pipelined total cycles never exceed sequential for long runs.
  EXPECT_LE(pipelined.total_cycles(1024),
            1024ull * static_cast<std::uint64_t>(sequential.makespan));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipeliningInvariants,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(1, 2, 4)));

// ------------------------------------------------------------ crossbar MVM

class CrossbarFidelity : public ::testing::TestWithParam<int> {};

TEST_P(CrossbarFidelity, ErrorShrinksAsNonIdealitiesVanish) {
  // The defining convergence property: as every analog non-ideality knob
  // goes to its ideal setting, the crossbar MVM converges on exact.
  const int adc_bits = GetParam();
  core::Rng rng(99);
  core::TensorF w({6, 12});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));

  imc::CrossbarConfig noisy;
  noisy.adc_bits = adc_bits;
  noisy.device.read_noise_rel = 0.05;
  noisy.programming.scheme = imc::ProgramScheme::kSinglePulse;

  imc::CrossbarConfig cleaner = noisy;
  cleaner.device.read_noise_rel = 0.0;
  cleaner.device.program_sigma_rel = 0.0;
  cleaner.programming.scheme = imc::ProgramScheme::kVerify;
  cleaner.programming.tolerance_rel = 1e-4;
  cleaner.programming.max_pulses = 100;

  const double rmse_noisy = imc::crossbar_mvm_rmse(w, noisy, 15, 1.0, 5);
  const double rmse_clean = imc::crossbar_mvm_rmse(w, cleaner, 15, 1.0, 5);
  EXPECT_LT(rmse_clean, rmse_noisy);
}

INSTANTIATE_TEST_SUITE_P(AdcBits, CrossbarFidelity, ::testing::Values(6, 8, 10));

// ---------------------------------------------------------------- CU model

class CuConservation : public ::testing::TestWithParam<int> {};

TEST_P(CuConservation, SplittingGemmNeverReducesTotalWork) {
  // Running a GEMM as two halves must produce the same FLOPs and at least
  // as many cycles as the fused call (tiling overheads only add).
  const auto n = static_cast<std::size_t>(GetParam());
  const scf::ComputeUnit cu;
  const auto fused = cu.run_gemm(n, n, n);
  const auto half_a = cu.run_gemm(n / 2, n, n);
  const auto half_b = cu.run_gemm(n - n / 2, n, n);
  EXPECT_EQ(fused.flops, half_a.flops + half_b.flops);
  EXPECT_LE(fused.cycles, half_a.cycles + half_b.cycles);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CuConservation,
                         ::testing::Values(64, 128, 256, 300));

}  // namespace
