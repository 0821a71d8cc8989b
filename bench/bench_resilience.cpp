// Resilient-runtime kill/resume experiments (the robustness counterpart of
// the performance benches): prove that campaigns interrupted at arbitrary
// points -- cooperative cancellation, wall-clock deadlines, unit budgets, or
// a hard SIGKILL -- resume from their durable state and finish bit-identical
// to an uninterrupted run, losing at most one journal record of work.
//
// Modes:
//   bench_resilience                      micro timings + in-process suite
//   bench_resilience --smoke              in-process suite only
//   bench_resilience --reference OUT DIR  uninterrupted run, digest -> OUT
//   bench_resilience --victim DIR N       run N units per campaign, then
//                                         raise(SIGKILL)  (exit status 137)
//   bench_resilience --resume OUT DIR     resume from DIR's durable state,
//                                         finish, digest -> OUT
// CI runs reference / victim / resume and asserts the two OUT files are
// byte-identical.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/fault.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "hls/dse.hpp"
#include "hls/ir.hpp"

namespace {

using namespace icsc;

// ---------------------------------------------------------------------------
// Micro timings: the durability primitives must stay cheap enough to sit
// inside campaign loops (one fsync per journal record is the price of the
// "at most one record lost" guarantee).

void BM_CancelTokenPoll(benchmark::State& state) {
  const core::CancelToken token(core::Deadline::after(3600.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(token.cancelled());
  }
}
BENCHMARK(BM_CancelTokenPoll);

void BM_SnapshotSave(benchmark::State& state) {
  const std::string path = "bench_resilience_snapshot.tmp.bin";
  std::vector<double> payload(256, 1.5);
  for (auto _ : state) {
    core::SnapshotWriter w;
    for (const double v : payload) w.put_f64(v);
    w.save(path, 0x42454E43, 1);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMicrosecond);

void BM_JournalAppend(benchmark::State& state) {
  const std::string path = "bench_resilience_journal.tmp.bin";
  std::remove(path.c_str());
  core::RunJournal journal(path, 0x42454E43);
  std::vector<std::uint8_t> record(128, 0xA5);
  for (auto _ : state) {
    journal.append(record.data(), record.size());
  }
  journal.close();
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Shared workloads. Small enough for CI, big enough that a kill at 30%
// leaves real work on both sides of the cut.

hls::DseConfig dse_config() {
  hls::DseConfig config;
  config.iterations = 256;
  config.checkpoint_every = 8;
  return config;
}

hls::Kernel dse_kernel() { return hls::make_fir_kernel(8); }

constexpr std::size_t kCampaignTrials = 32;
constexpr std::uint64_t kCampaignSeed = 0x5E5111E4CE;

core::TrialResult campaign_trial(std::uint64_t seed, std::size_t index) {
  // Deterministic stand-in workload: a few hash-derived figures per trial.
  core::TrialResult r;
  r.metric = core::fault_uniform(seed, index);
  r.latency = 10.0 + 90.0 * core::fault_uniform(seed ^ 0x1A7E, index);
  r.faults_injected = core::fault_hash(seed, index) % 7;
  r.repairs = core::fault_hash(seed, index + 1) % 3;
  return r;
}

hetero::dna::ArchivalSimParams archival_params() {
  hetero::dna::ArchivalSimParams params;
  params.payload_bytes = 768;
  params.channel.mean_coverage = 3.0;
  params.channel.dropout_rate = 0.03;
  params.channel.burst_rate = 0.01;
  params.reread.max_passes = 3;
  return params;
}

// ---------------------------------------------------------------------------
// Digests: CRC-32 over the canonical serialization of a result, so
// bit-identity between runs collapses to one comparable integer.

std::uint32_t digest_payload(const core::SnapshotWriter& w) {
  return core::crc32(w.payload().data(), w.payload().size());
}

std::uint32_t digest_dse(const hls::DseResult& r) {
  core::SnapshotWriter w;
  w.put_u64(r.evaluations);
  w.put_u64(r.feasible);
  w.put_bool(r.completed);
  w.put_u64(r.evaluated.size());
  for (const auto& p : r.evaluated) {
    w.put_i32(p.unroll);
    w.put_i32(p.budget.alus);
    w.put_i32(p.budget.muls);
    w.put_i32(p.budget.mem_ports);
    w.put_f64(p.total_latency_us);
    w.put_f64(p.area_score);
    w.put_bool(p.cost.fits);
    w.put_i32(p.cost.cycles);
  }
  w.put_u64(r.front.size());
  for (const auto& p : r.front) {
    w.put_u64(p.id);
    for (const double obj : p.objectives) w.put_f64(obj);
  }
  return digest_payload(w);
}

std::uint32_t digest_campaign(const std::vector<core::TrialResult>& results) {
  core::SnapshotWriter w;
  w.put_u64(results.size());
  for (const auto& t : results) {
    w.put_f64(t.metric);
    w.put_f64(t.latency);
    w.put_bool(t.completed);
    w.put_u64(t.faults_injected);
    w.put_u64(t.repairs);
  }
  return digest_payload(w);
}

std::uint32_t digest_archival(const hetero::dna::ArchivalSimResult& r) {
  core::SnapshotWriter w;
  w.put_u64(r.strands);
  w.put_u64(r.reads);
  w.put_u64(r.clusters);
  w.put_f64(r.byte_error_rate);
  w.put_u64(r.missing_before_repair);
  w.put_u64(r.repaired_chunks);
  w.put_u64(r.missing_after_repair);
  w.put_i32(r.passes_used);
  w.put_u64(r.rescued_strands);
  w.put_u64(r.unrecovered_strands);
  w.put_bool(r.completed);
  return digest_payload(w);
}

/// Writes the run-invariant digest file CI diffs between the reference and
/// resumed runs (resume diagnostics deliberately excluded).
void write_digests(const std::string& out_path, std::uint32_t dse,
                   std::uint32_t campaign, std::uint32_t archival) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\"bench\":\"resilience_digests\",\"dse\":\"%08x\","
               "\"campaign\":\"%08x\",\"archival\":\"%08x\"}\n",
               dse, campaign, archival);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// The three campaigns, parameterised by durable-state paths and per-run
// unit budgets (0 = run to completion).

hls::DseResult run_dse(const std::string& checkpoint, std::size_t budget) {
  hls::DseConfig config = dse_config();
  config.checkpoint_path = checkpoint;
  config.unit_budget = budget;
  return hls::dse_exhaustive(dse_kernel(), config);
}

core::CampaignRunOutcome run_campaign(const std::string& checkpoint,
                                      std::size_t budget) {
  const core::FaultCampaign campaign(kCampaignSeed, kCampaignTrials);
  core::CampaignRunOptions options;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every = 4;
  options.trial_budget = budget;
  return campaign.run(campaign_trial, options);
}

hetero::dna::ArchivalSimResult run_archival(const std::string& journal,
                                            std::size_t budget) {
  hetero::dna::ArchivalRunOptions options;
  options.journal_path = journal;
  options.journal_batch = 16;
  options.batch_budget = budget;
  return hetero::dna::run_archival_sim(archival_params(), options);
}

int run_to_files(const std::string& out_path, const std::string& workdir,
                 bool persist) {
  const std::string dse_ckpt = persist ? workdir + "/dse.ckpt" : "";
  const std::string campaign_ckpt = persist ? workdir + "/campaign.ckpt" : "";
  const std::string journal = persist ? workdir + "/archival.journal" : "";
  const auto dse = run_dse(dse_ckpt, 0);
  const auto campaign = run_campaign(campaign_ckpt, 0);
  const auto archival = run_archival(journal, 0);
  std::printf(
      "JSON {\"bench\":\"resilience_run\",\"mode\":\"%s\","
      "\"dse_completed\":%s,\"dse_resumed_units\":%zu,"
      "\"campaign_completed\":%s,\"campaign_resumed_trials\":%zu,"
      "\"archival_completed\":%s,\"archival_resumed_batches\":%zu}\n",
      persist ? "resume" : "reference", dse.completed ? "true" : "false",
      dse.resumed_units, campaign.completed ? "true" : "false",
      campaign.resumed_trials, archival.completed ? "true" : "false",
      archival.resumed_batches);
  write_digests(out_path, digest_dse(dse), digest_campaign(campaign.results),
                digest_archival(archival));
  return 0;
}

int run_victim(const std::string& workdir, std::size_t units) {
  // Execute a bounded prefix of each campaign -- every completed unit lands
  // in durable state -- then die the hard way. No destructors, no stdio
  // flush: whatever survives is what fsync promised.
  (void)run_dse(workdir + "/dse.ckpt", units);
  (void)run_campaign(workdir + "/campaign.ckpt", units);
  (void)run_archival(workdir + "/archival.journal", units);
  std::raise(SIGKILL);
  return 1;  // unreachable
}

// ---------------------------------------------------------------------------
// In-process suite: kill-at-k% / resume bit-identity for all campaign
// types, deadline partials, and watcher-thread cancellation.

bool report(const char* name, bool ok) {
  std::printf("JSON {\"bench\":\"resilience_smoke\",\"check\":\"%s\","
              "\"ok\":%s}\n", name, ok ? "true" : "false");
  return ok;
}

std::string temp_dir() {
  char tmpl[] = "/tmp/bench_resilience_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (!dir) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  return dir;
}

bool smoke_dse_kill_resume(const std::string& dir) {
  bool all = true;
  const hls::Kernel kernel = dse_kernel();
  // Exhaustive/random units = design points; hill-climb units = restarts.
  // Each strategy is killed at ~30% of its units and resumed.
  const auto run_strategy = [&](const char* name, std::size_t total,
                                auto&& strategy) {
    hls::DseConfig config = dse_config();
    const hls::DseResult reference = strategy(config);

    const std::string ckpt = dir + "/dse_" + name + ".ckpt";
    hls::DseConfig victim = dse_config();
    victim.checkpoint_path = ckpt;
    victim.unit_budget = std::max<std::size_t>(1, (total * 3) / 10);
    const hls::DseResult partial = strategy(victim);

    hls::DseConfig resume = dse_config();
    resume.checkpoint_path = ckpt;
    const hls::DseResult resumed = strategy(resume);

    const bool ok = !partial.completed &&
                    partial.feasible == partial.evaluated.size() &&
                    resumed.completed && resumed.resumed_units > 0 &&
                    digest_dse(reference) == digest_dse(resumed);
    std::printf(
        "JSON {\"bench\":\"resilience_dse\",\"strategy\":\"%s\","
        "\"units\":%zu,\"kill_after\":%zu,\"resumed_units\":%zu,"
        "\"reference_digest\":\"%08x\",\"resumed_digest\":\"%08x\","
        "\"bit_identical\":%s}\n",
        name, total, victim.unit_budget, resumed.resumed_units,
        digest_dse(reference), digest_dse(resumed), ok ? "true" : "false");
    all = all && report((std::string("dse_") + name).c_str(), ok);
  };
  // The exhaustive unit count follows the sweep grid.
  const hls::DseSpace space = dse_config().space;
  const std::size_t grid_points =
      space.unroll_factors.size() * space.alu_counts.size() *
      space.mul_counts.size() * space.mem_port_counts.size();
  run_strategy("exhaustive", grid_points, [&](const hls::DseConfig& c) {
    return hls::dse_exhaustive(kernel, c);
  });
  run_strategy("random", 96, [&](const hls::DseConfig& c) {
    return hls::dse_random(kernel, c, 96, 0xD5E5EED);
  });
  run_strategy("hill_climb", 12, [&](const hls::DseConfig& c) {
    return hls::dse_hill_climb(kernel, c, 12, 0xC11E3);
  });
  return all;
}

bool smoke_dse_serial_parallel(const std::string& dir) {
  // Resume bit-identity must hold across thread counts: kill under the
  // pool, resume serially, compare against an uninterrupted serial run.
  const hls::Kernel kernel = dse_kernel();
  hls::DseConfig config = dse_config();
  hls::DseResult reference;
  {
    core::ScopedSerial guard;
    reference = hls::dse_exhaustive(kernel, config);
  }
  const std::string ckpt = dir + "/dse_xthread.ckpt";
  hls::DseConfig victim = dse_config();
  victim.checkpoint_path = ckpt;
  victim.unit_budget = 50;
  (void)hls::dse_exhaustive(kernel, victim);  // parallel prefix
  hls::DseConfig resume = dse_config();
  resume.checkpoint_path = ckpt;
  hls::DseResult resumed;
  {
    core::ScopedSerial guard;
    resumed = hls::dse_exhaustive(kernel, resume);  // serial remainder
  }
  return report("dse_cross_thread",
                digest_dse(reference) == digest_dse(resumed));
}

bool smoke_dse_deadline() {
  // An already-expired deadline must yield a well-formed empty partial;
  // a generous one must not perturb the run.
  const hls::Kernel kernel = dse_kernel();
  hls::DseConfig config = dse_config();
  config.deadline = core::Deadline::after(0.0);
  const hls::DseResult partial = hls::dse_exhaustive(kernel, config);
  hls::DseConfig open = dse_config();
  open.deadline = core::Deadline::after(3600.0);
  const hls::DseResult full = hls::dse_exhaustive(kernel, open);
  const hls::DseResult reference = hls::dse_exhaustive(kernel, dse_config());
  return report("dse_deadline",
                !partial.completed && partial.evaluations == 0 &&
                    partial.evaluated.empty() && partial.front.empty() &&
                    full.completed &&
                    digest_dse(full) == digest_dse(reference));
}

bool smoke_dse_watcher_cancel() {
  // A watcher thread pulls the plug mid-run; the run must drain in-flight
  // chunks and return a consistent prefix, never a torn result.
  const hls::Kernel kernel = dse_kernel();
  hls::DseConfig config = dse_config();
  core::CancelToken token;
  config.cancel = token;
  std::thread watcher([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.request_stop();
  });
  const hls::DseResult result = hls::dse_exhaustive(kernel, config);
  watcher.join();
  const hls::DseResult reference = hls::dse_exhaustive(kernel, dse_config());
  // Whether the watcher won the race or not, the result must be a
  // consistent prefix: counters exact, no torn or double-counted chunks.
  const bool well_formed = result.feasible == result.evaluated.size() &&
                           result.evaluations <= reference.evaluations &&
                           (result.completed ==
                            (result.evaluations == reference.evaluations));
  return report("dse_watcher_cancel", well_formed);
}

bool smoke_campaign_kill_resume(const std::string& dir) {
  const core::FaultCampaign campaign(kCampaignSeed, kCampaignTrials);
  const std::vector<core::TrialResult> reference = campaign.run(campaign_trial);
  const std::string ckpt = dir + "/campaign.ckpt";
  const auto partial = run_campaign(ckpt, kCampaignTrials * 3 / 10);
  const auto resumed = run_campaign(ckpt, 0);
  const bool ok = !partial.completed &&
                  partial.results.size() < kCampaignTrials &&
                  resumed.completed && resumed.resumed_trials > 0 &&
                  core::campaign_results_identical(reference, resumed.results);
  std::printf(
      "JSON {\"bench\":\"resilience_campaign\",\"trials\":%zu,"
      "\"kill_after\":%zu,\"resumed_trials\":%zu,\"digest\":\"%08x\","
      "\"bit_identical\":%s}\n",
      kCampaignTrials, partial.results.size(), resumed.resumed_trials,
      digest_campaign(resumed.results), ok ? "true" : "false");
  return report("campaign_kill_resume", ok);
}

bool smoke_campaign_deadline() {
  const core::FaultCampaign campaign(kCampaignSeed, kCampaignTrials);
  core::CampaignRunOptions options;
  options.deadline = core::Deadline::after(0.0);
  const auto partial = campaign.run(campaign_trial, options);
  return report("campaign_deadline",
                !partial.completed && partial.results.empty());
}

bool smoke_archival_kill_resume(const std::string& dir) {
  const auto reference = hetero::dna::run_archival_sim(archival_params());
  const std::string journal = dir + "/archival.journal";
  const auto partial = run_archival(journal, 2);
  const auto resumed = run_archival(journal, 0);
  // Bounded replay: the resumed run must pick up every batch the truncated
  // run persisted -- at most the one in-flight record is re-sequenced.
  const bool bounded = resumed.resumed_batches >= 2;
  const bool ok = !partial.completed && resumed.completed && bounded &&
                  digest_archival(resumed) == digest_archival(reference);
  std::printf(
      "JSON {\"bench\":\"resilience_archival\",\"kill_after_batches\":2,"
      "\"resumed_batches\":%zu,\"reference_digest\":\"%08x\","
      "\"resumed_digest\":\"%08x\",\"bit_identical\":%s}\n",
      resumed.resumed_batches, digest_archival(reference),
      digest_archival(resumed), ok ? "true" : "false");
  return report("archival_kill_resume", ok);
}

int run_smoke() {
  if (core::parallel_threads() <= 1) core::set_parallel_threads(4);
  const std::string dir = temp_dir();
  bool ok = true;
  ok = smoke_dse_kill_resume(dir) && ok;
  ok = smoke_dse_serial_parallel(dir) && ok;
  ok = smoke_dse_deadline() && ok;
  ok = smoke_dse_watcher_cancel() && ok;
  ok = smoke_campaign_kill_resume(dir) && ok;
  ok = smoke_campaign_deadline() && ok;
  ok = smoke_archival_kill_resume(dir) && ok;
  std::printf("JSON {\"bench\":\"resilience_smoke_summary\",\"all_ok\":%s}\n",
              ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      return run_smoke();
    }
    if (arg == "--reference" && i + 2 < argc) {
      return run_to_files(argv[i + 1], argv[i + 2], /*persist=*/false);
    }
    if (arg == "--resume" && i + 2 < argc) {
      return run_to_files(argv[i + 1], argv[i + 2], /*persist=*/true);
    }
    if (arg == "--victim" && i + 2 < argc) {
      return run_victim(argv[i + 1],
                        static_cast<std::size_t>(std::atoi(argv[i + 2])));
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_smoke();
}
