// Reliability and fault-injection campaigns across the three hardware
// thrusts (Secs. IV, VI, VII): stuck-at cells in the IMC crossbar with
// bounded-retry re-programming and spare-column remapping, CU failures in
// the Scalable Compute Fabric with re-partitioning across survivors, and
// strand dropout / burst errors in the DNA channel with multi-pass re-read
// in front of the outer ECC. Every sweep is a seeded FaultCampaign, and the
// IMC rows carry the serial-vs-parallel bit-identity check that gates the
// whole framework.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/fault.hpp"
#include "core/sampling.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "imc/crossbar.hpp"
#include "report.hpp"
#include "scf/fabric.hpp"

namespace {

using namespace icsc;

// ---------------------------------------------------------------------------
// Microkernel timings: the fault oracle must stay cheap enough to sit on
// every cell read / CU census / strand pass.

void BM_FaultOracle(benchmark::State& state) {
  core::FaultConfig config;
  config.stuck_at_rate = 0.01;
  config.drift_rate = 0.01;
  const core::FaultInjector injector(config);
  std::uint64_t site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.at(site++));
  }
}
BENCHMARK(BM_FaultOracle);

void BM_FaultyCrossbarProgram(benchmark::State& state) {
  core::Rng rng(7);
  core::TensorF w({24, 24});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::CrossbarConfig config;
  config.faults.stuck_at_rate = 0.01;
  config.repair.max_retries = 2;
  config.spare_columns = 4;
  for (auto _ : state) {
    const imc::Crossbar xbar(w, config);
    benchmark::DoNotOptimize(xbar.health().stuck_sites);
  }
}
BENCHMARK(BM_FaultyCrossbarProgram)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// IMC: stuck-at sweep with and without the retry+remap defences.

core::TrialResult crossbar_trial(std::uint64_t seed, double stuck_rate,
                                 std::size_t spares, int retries) {
  core::Rng rng(seed);
  core::TensorF w({24, 24});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::CrossbarConfig config;
  config.seed = seed;
  config.faults.seed = seed ^ 0xFA17;
  config.faults.stuck_at_rate = stuck_rate;
  config.spare_columns = spares;
  config.repair.max_retries = retries;
  core::TrialResult r;
  r.metric = imc::crossbar_mvm_rmse(w, config, 4, 1.0, seed ^ 0x5EED);
  const imc::Crossbar xbar(w, config);
  r.faults_injected = xbar.health().stuck_sites;
  r.repairs = xbar.health().repaired_cells + xbar.health().remapped_columns;
  r.latency = static_cast<double>(xbar.programming_pulses());
  return r;
}

/// Returns false when a parallel campaign differs from its serial run.
bool print_imc_sweep() {
  // The serial-vs-parallel bit-identity check is only meaningful when the
  // campaign actually fans out over a pool.
  if (core::parallel_threads() <= 1) core::set_parallel_threads(4);
  std::printf("\n=== IMC: stuck-at sweep, raw vs retry+remap (%zu threads) "
              "===\n", core::parallel_threads());
  const std::size_t kTrials = 8;
  const std::size_t kSpares = 6;
  const int kRetries = 2;
  const double rates[] = {0.0, 0.002, 0.005, 0.01, 0.02, 0.03};
  double prev_raw = -1.0;
  bool monotone = true;
  bool always_improves = true;
  bool all_identical = true;
  for (const double rate : rates) {
    const core::FaultCampaign campaign(0xF2A1, kTrials);
    const auto raw_trial = [rate](std::uint64_t seed, std::size_t) {
      return crossbar_trial(seed, rate, 0, 0);
    };
    const auto protected_trial = [&](std::uint64_t seed, std::size_t) {
      return crossbar_trial(seed, rate, kSpares, kRetries);
    };
    const auto raw = campaign.run(raw_trial);
    const auto prot = campaign.run(protected_trial);
    std::vector<core::TrialResult> raw_serial, prot_serial;
    {
      core::ScopedSerial guard;
      raw_serial = campaign.run(raw_trial);
      prot_serial = campaign.run(protected_trial);
    }
    const bool bit_identical =
        core::campaign_results_identical(raw, raw_serial) &&
        core::campaign_results_identical(prot, prot_serial);
    all_identical = all_identical && bit_identical;
    const auto raw_sum = core::FaultCampaign::summarize(raw);
    const auto prot_sum = core::FaultCampaign::summarize(prot);
    if (rate > 0.0 && prot_sum.mean_metric >= raw_sum.mean_metric) {
      always_improves = false;
    }
    if (raw_sum.mean_metric < prev_raw) monotone = false;
    prev_raw = raw_sum.mean_metric;
    report::Json("fault_imc")
        .num("stuck_rate", rate, 4)
        .num("trials", kTrials)
        .num("rmse_raw", raw_sum.mean_metric, 6)
        .num("rmse_protected", prot_sum.mean_metric, 6)
        .num("stuck_sites", raw_sum.total_faults)
        .num("repairs", prot_sum.total_repairs)
        .flag("improved",
              rate == 0.0 || prot_sum.mean_metric < raw_sum.mean_metric)
        .flag("bit_identical", bit_identical)
        .print();
  }
  report::Json("fault_imc_summary")
      .flag("monotone_raw", monotone)
      .flag("remap_always_improves", always_improves)
      .num("spares", kSpares)
      .num("retries", kRetries)
      .print();
  return all_identical;
}

// ---------------------------------------------------------------------------
// SCF: forced CU-failure sweep with graceful degradation vs lost work.

void print_scf_sweep() {
  std::printf("\n=== SCF: CU failures, repartition vs static shares ===\n");
  const std::vector<scf::KernelCall> trace{
      {scf::KernelCall::Kind::kGemm, 256, 256, 256, "qkv"},
      {scf::KernelCall::Kind::kSoftmax, 4096, 0, 0, "softmax"},
      {scf::KernelCall::Kind::kGemm, 256, 256, 1024, "ffn"},
      {scf::KernelCall::Kind::kLayerNorm, 4096, 0, 0, "norm"},
  };
  const int failed_counts[] = {0, 1, 2, 4, 8, 12, 15};
  for (const int failed : failed_counts) {
    scf::FabricConfig config;
    config.forced_failed_cus = failed;
    const scf::ScalableComputeFabric fabric(config);
    const auto kpi = fabric.degraded_kpi(trace);
    config.repartition_on_failure = false;
    const scf::ScalableComputeFabric rigid(config);
    const auto rigid_stats = rigid.run_trace(trace);
    report::Json("fault_scf")
        .num("num_cus", fabric.config().num_cus)
        .num("failed_cus", kpi.health.failed_cus)
        .flag("completed", kpi.completed)
        .num("slowdown", kpi.slowdown, 3)
        .num("degraded_gflops", kpi.degraded_gflops, 2)
        .flag("completed_no_repartition", rigid_stats.completed)
        .num("lost_kernels_no_repartition", rigid_stats.lost_kernels)
        .print();
  }
  // Pool fallback on a 12 tensor + 4 vector CU fabric: GEMMs complete on
  // the vector pool when the whole tensor pool is down.
  scf::FabricConfig mixed;
  mixed.num_cus = 12;
  mixed.vector_cus = 4;
  mixed.forced_failed_cus = mixed.num_cus;
  const auto kpi = scf::ScalableComputeFabric(mixed).degraded_kpi(trace);
  report::Json("fault_scf_hetero")
      .num("tensor_cus_failed", kpi.health.failed_cus)
      .flag("completed", kpi.completed)
      .num("fallback_slowdown", kpi.slowdown, 3)
      .print();
}

// ---------------------------------------------------------------------------
// DNA: dropout/burst sweep, single-shot vs multi-pass re-read before ECC.

void print_dna_sweep() {
  std::printf("\n=== DNA: dropout + bursts, single read vs re-read + ECC "
              "===\n");
  const double dropout_rates[] = {0.0, 0.02, 0.05};
  for (const double dropout : dropout_rates) {
    hetero::dna::ArchivalSimParams params;
    params.payload_bytes = 1024;
    params.channel.mean_coverage = 3.0;
    params.channel.dropout_rate = dropout;
    params.channel.burst_rate = 0.01;
    params.reread.max_passes = 1;
    const auto single = hetero::dna::run_archival_sim(params);
    params.reread.max_passes = 4;
    const auto retried = hetero::dna::run_archival_sim(params);
    report::Json("fault_dna")
        .num("dropout_rate", dropout, 3)
        .num("burst_rate", params.channel.burst_rate, 3)
        .num("ber_single", single.byte_error_rate, 5)
        .num("ber_reread", retried.byte_error_rate, 5)
        .num("passes", retried.passes_used)
        .num("rescued_strands", retried.rescued_strands)
        .num("unrecovered", retried.unrecovered_strands)
        .num("repaired_chunks", retried.repaired_chunks)
        .print();
  }
}

// ---------------------------------------------------------------------------
// Statistical acceleration study (--early-stop): the same crossbar campaign
// run three ways -- exhaustively (the oracle), with CI-driven early
// stopping, and with pilot-round Neyman stratification. The early-stopped
// results must be the oracle's first trials, bit for bit (prefix purity).

constexpr double kEsStuckRate = 0.01;
constexpr std::size_t kEsSpares = 6;
constexpr int kEsRetries = 2;

core::TrialResult es_trial(std::uint64_t seed, std::size_t) {
  return crossbar_trial(seed, kEsStuckRate, kEsSpares, kEsRetries);
}

core::sampling::EarlyStopConfig es_config() {
  core::sampling::EarlyStopConfig stop;
  stop.enabled = true;
  stop.confidence = 0.95;
  stop.relative_half_width = 0.10;
  stop.min_trials = 24;
  stop.check_every = 4;
  return stop;
}

/// Returns whether the early-stopped trials are the oracle's first trials.
bool print_early_stop_vs_oracle() {
  const std::size_t kBudget = 1000;
  const core::sampling::EarlyStopConfig stop = es_config();
  const core::FaultCampaign campaign(0xE5'70'11ULL, kBudget);

  // Exhaustive oracle: every budgeted trial, same seeds, no stopping rule.
  const auto oracle_results = campaign.run(es_trial);
  const auto oracle =
      core::campaign_metric_estimate(oracle_results, stop.confidence);

  core::CampaignRunOptions run;
  run.early_stop = stop;
  const auto outcome = campaign.run(es_trial, run);
  const bool inside = outcome.metric_estimate.contains(oracle.mean);
  const bool prefix_identical = core::campaign_results_identical(
      outcome.results,
      {oracle_results.begin(),
       oracle_results.begin() +
           static_cast<std::ptrdiff_t>(outcome.trials_run())});
  const double saved = outcome.trials_run() > 0
                           ? static_cast<double>(kBudget) /
                                 static_cast<double>(outcome.trials_run())
                           : 1.0;
  report::Json("fault_early_stop")
      .num("budget", kBudget)
      .num("trials_run", outcome.trials_run())
      .num("saved_factor", saved, 2)
      .str("stop_reason", core::sampling::stop_reason_name(outcome.stop_reason))
      .num("confidence", stop.confidence, 2)
      .num("rel_target", stop.relative_half_width, 3)
      .num("estimate", outcome.metric_estimate.mean, 6)
      .num("half_width", outcome.metric_estimate.half_width, 6)
      .num("oracle_mean", oracle.mean, 6)
      .flag("oracle_inside_ci", inside)
      .flag("prefix_identical", prefix_identical)
      .print();
  return prefix_identical;
}

void print_stratified_study() {
  // Strata: operating points of the stuck-at rate, weighted by how much of
  // the deployment fleet runs at each point. The high-rate tail is rare but
  // noisy -- exactly the shape Neyman allocation exists for.
  const std::vector<double> rates = {0.005, 0.01, 0.02, 0.04};
  const std::vector<double> weights = {0.4, 0.3, 0.2, 0.1};
  const std::size_t kPilot = 8;
  const std::size_t kBudget = 160;
  const double kConfidence = 0.95;

  const auto run_stratum = [&](std::size_t h, std::size_t trials,
                               std::uint64_t seed_base) {
    const double rate = rates[h];
    const core::FaultCampaign campaign(seed_base + h, trials);
    const auto results = campaign.run([rate](std::uint64_t seed, std::size_t) {
      return crossbar_trial(seed, rate, kEsSpares, kEsRetries);
    });
    core::sampling::OnlineStats stats;
    for (const auto& r : results) stats.push(r.metric);
    return stats;
  };

  // Pilot round: cheap per-stratum sigma estimates feeding the allocator.
  std::vector<double> sigmas;
  for (std::size_t h = 0; h < rates.size(); ++h) {
    sigmas.push_back(run_stratum(h, kPilot, 0xA11C'0000ULL).stddev());
  }
  const auto neyman =
      core::sampling::neyman_allocation(weights, sigmas, kBudget, 4);
  // Proportional baseline: equal sigmas collapse Neyman to pure
  // weight-proportional sampling at the same total budget.
  const std::vector<double> flat(rates.size(), 1.0);
  const auto proportional =
      core::sampling::neyman_allocation(weights, flat, kBudget, 4);

  const auto estimate_with = [&](const std::vector<std::size_t>& alloc) {
    std::vector<core::sampling::OnlineStats> strata;
    for (std::size_t h = 0; h < rates.size(); ++h) {
      strata.push_back(run_stratum(h, alloc[h], 0x57A7'0000ULL));
    }
    return core::sampling::combine_strata(weights, strata, kConfidence);
  };
  const auto est_neyman = estimate_with(neyman);
  const auto est_prop = estimate_with(proportional);

  report::Json("fault_stratified")
      .num("budget", kBudget)
      .num("pilot", kPilot * rates.size())
      .list("neyman_alloc", neyman)
      .num("estimate", est_neyman.mean, 6)
      .num("half_width", est_neyman.half_width, 6)
      .num("half_width_proportional", est_prop.half_width, 6)
      .flag("neyman_no_worse",
            est_neyman.half_width <= est_prop.half_width * 1.05)
      .print();
}

/// Returns false when the early-stopped trials leave the oracle prefix.
bool print_early_stop_study() {
  if (core::parallel_threads() <= 1) core::set_parallel_threads(4);
  std::printf("\n=== Statistical acceleration: early stopping and "
              "stratification ===\n");
  const bool prefix_identical = print_early_stop_vs_oracle();
  print_stratified_study();
  return prefix_identical;
}

}  // namespace

int main(int argc, char** argv) {
  // --early-stop: the statistical-acceleration study (CI early stopping vs
  // the exhaustive oracle, and Neyman stratification) replaces the sweeps.
  const bool early_stop = report::take_flag(argc, argv, "--early-stop");
  report::run_micro_timings(argc, argv);
  if (early_stop) return print_early_stop_study() ? 0 : 1;
  const bool identical = print_imc_sweep();
  print_scf_sweep();
  print_dna_sweep();
  return identical ? 0 : 1;
}
