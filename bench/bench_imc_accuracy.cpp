// Reproduces the Sec. IV accuracy experiments: DNN accuracy on analog IMC
// crossbars under device non-idealities -- programming scheme (the [10]
// program-and-verify study), PCM conductance drift over time, ADC
// resolution -- for both RRAM and PCM devices.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/sampling.hpp"
#include "core/table.hpp"
#include "imc/characterization.hpp"
#include "imc/noise_training.hpp"
#include "imc/pipeline.hpp"
#include "imc/program_verify.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::imc;

void BM_CrossbarMvm(benchmark::State& state) {
  core::Rng rng(1);
  core::TensorF w({64, 64});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  Crossbar xbar(w, CrossbarConfig{});
  std::vector<float> x(64, 0.5F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xbar.matvec(x));
  }
}
BENCHMARK(BM_CrossbarMvm);

void print_tables() {
  std::printf("\n=== Device characterisation (model extraction, [9]/[10] style) ===\n");
  core::TextTable ct({"device", "fitted drift nu (true)", "D2D nu spread",
                      "read noise (true)"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    const auto drift = characterize_drift(spec, 200, 12, 3);
    const double noise = characterize_read_noise(spec, 20000, 9);
    ct.add_row({spec.name,
                core::TextTable::num(drift.fitted_nu, 4) + " (" +
                    core::TextTable::num(spec.drift_nu, 4) + ")",
                core::TextTable::num(drift.nu_spread, 4),
                core::TextTable::num(noise, 4) + " (" +
                    core::TextTable::num(spec.read_noise_rel, 4) + ")"});
  }
  std::printf("%s", ct.to_string().c_str());

  std::printf("\n=== Sec. IV: program-and-verify accuracy ([10] study) ===\n");
  core::TextTable pt({"device", "scheme", "mean |G err| (uS)", "mean pulses",
                      "programming energy (nJ/1k cells)"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    for (const auto& [name, scheme] :
         {std::pair{"single pulse", ProgramScheme::kSinglePulse},
          {"4 fixed pulses", ProgramScheme::kFixedPulses},
          {"program-and-verify", ProgramScheme::kVerify}}) {
      ProgramVerifyConfig config;
      config.scheme = scheme;
      const auto stats = measure_programming(spec, config, 1000, 7);
      pt.add_row({spec.name, name,
                  core::TextTable::num(stats.mean_abs_error_us, 2),
                  core::TextTable::num(stats.mean_pulses, 1),
                  core::TextTable::num(stats.energy_pj * 1e-3, 1)});
    }
  }
  std::printf("%s", pt.to_string().c_str());

  std::printf("\n=== DNN accuracy on IMC vs programming scheme ===\n");
  core::TextTable at({"device", "scheme", "software acc", "IMC acc"});
  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    for (const auto& [name, scheme] :
         {std::pair{"single pulse", ProgramScheme::kSinglePulse},
          {"program-and-verify", ProgramScheme::kVerify}}) {
      TileConfig config;
      config.crossbar.device = spec;
      config.crossbar.programming.scheme = scheme;
      const auto point = run_imc_experiment(config, 1.0, 42);
      at.add_row({spec.name, name,
                  core::TextTable::num(100.0 * point.software_accuracy, 1) + "%",
                  core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%"});
    }
  }
  std::printf("%s", at.to_string().c_str());

  std::printf("\n=== Accuracy vs conductance drift (program-and-verify) ===\n");
  core::TextTable dt({"time after programming", "RRAM acc", "PCM acc"});
  for (const auto& [label, seconds] :
       {std::pair{"1 second", 1.0}, {"1 hour", 3600.0}, {"1 day", 86400.0},
        {"1 month", 2.6e6}, {"1 year", 3.15e7}}) {
    std::string row[2];
    int i = 0;
    for (const auto& spec : {rram_spec(), pcm_spec()}) {
      TileConfig config;
      config.crossbar.device = spec;
      config.crossbar.programming.scheme = ProgramScheme::kVerify;
      const auto point = run_imc_experiment(config, seconds, 42);
      row[i++] = core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%";
    }
    dt.add_row({label, row[0], row[1]});
  }
  std::printf("%s", dt.to_string().c_str());

  std::printf("\n=== Noise-aware training vs programming-error level (RRAM, single pulse) ===\n");
  core::TextTable nt({"program error", "standard training on IMC",
                      "noise-aware training on IMC"});
  for (const double sigma : {0.12, 0.2, 0.3}) {
    const auto r = run_noise_training_experiment(sigma, 42);
    nt.add_row({core::TextTable::num(100.0 * sigma, 0) + "%",
                core::TextTable::num(100.0 * r.imc_standard, 1) + "%",
                core::TextTable::num(100.0 * r.imc_noise_aware, 1) + "%"});
  }
  std::printf("%s", nt.to_string().c_str());

  std::printf("\n=== Accuracy vs ADC resolution (RRAM, program-and-verify) ===\n");
  core::TextTable bt({"ADC bits", "IMC acc"});
  for (const int bits : {2, 3, 4, 6, 8, 10}) {
    TileConfig config;
    config.crossbar.adc_bits = bits;
    const auto point = run_imc_experiment(config, 1.0, 42);
    bt.add_row({std::to_string(bits),
                core::TextTable::num(100.0 * point.imc_accuracy, 1) + "%"});
  }
  std::printf("%s", bt.to_string().c_str());
}

// --early-stop: sequential (CI-driven) device Monte-Carlo instead of the
// fixed-population tables. Each study is run twice over the same
// hash-derived cell streams -- early-stopped and exhaustively -- so the
// exhaustive mean is a true oracle for the early-stopped CI.
void print_early_stop_study() {
  std::printf("\n=== Sequential device Monte-Carlo: CI early stopping vs "
              "exhaustive oracle ===\n");
  const int kBudget = 20000;
  core::sampling::EarlyStopConfig stop;
  stop.enabled = true;
  stop.confidence = 0.95;
  stop.relative_half_width = 0.05;
  stop.min_trials = 64;
  stop.check_every = 16;
  core::sampling::EarlyStopConfig exhaustive;  // disabled: runs the budget

  for (const auto& spec : {rram_spec(), pcm_spec()}) {
    ProgramVerifyConfig pv;
    pv.scheme = ProgramScheme::kVerify;
    const double target = spec.g_min_us + 0.6 * spec.g_range();
    const auto seq = characterize_programming_error_sequential(
        spec, pv, target, kBudget, 11, stop);
    const auto full = characterize_programming_error_sequential(
        spec, pv, target, kBudget, 11, exhaustive);
    const bool inside = seq.estimate.contains(full.estimate.mean);
    report::Json("imc_early_stop")
        .str("study", "program_error")
        .str("device", spec.name)
        .num("budget", kBudget)
        .num("samples_run", seq.samples_run)
        .num("saved_factor", seq.saved_factor(), 2)
        .num("estimate_us", seq.estimate.mean, 5)
        .num("half_width_us", seq.estimate.half_width, 5)
        .num("oracle_mean_us", full.estimate.mean, 5)
        .flag("oracle_inside_ci", inside)
        .print();

    const auto noise_seq =
        characterize_read_noise_sequential(spec, kBudget, 13, stop);
    const auto noise_full =
        characterize_read_noise_sequential(spec, kBudget, 13, exhaustive);
    const bool noise_inside =
        noise_seq.estimate.contains(noise_full.estimate.mean);
    report::Json("imc_early_stop")
        .str("study", "read_noise")
        .str("device", spec.name)
        .num("budget", kBudget)
        .num("samples_run", noise_seq.samples_run)
        .num("saved_factor", noise_seq.saved_factor(), 2)
        .num("estimate", noise_seq.estimate.mean, 5)
        .num("half_width", noise_seq.estimate.half_width, 5)
        .num("oracle_mean", noise_full.estimate.mean, 5)
        .flag("oracle_inside_ci", noise_inside)
        .print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool early_stop = report::take_flag(argc, argv, "--early-stop");
  report::run_micro_timings(argc, argv);
  if (early_stop) {
    print_early_stop_study();
    return 0;
  }
  print_tables();
  return 0;
}
