// Reproduces Fig. 6 and the Sec. VI DNA-storage claims:
//   - the end-to-end channel (encode -> noise -> cluster -> consensus ->
//     decode) recovers the payload across realistic error rates,
//   - edit-distance kernel throughput on CPU (DP, banded, Myers), measured
//     in GCUPS by google-benchmark,
//   - the Alveo-U50 accelerator model KPIs: ~16.8 TCUPS, ~46 Mpair/Joule,
//     ~90% efficiency, and its speedup over the measured CPU kernels.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/rng.hpp"
#include "core/table.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/edit_distance.hpp"
#include "hetero/dna/fpga_accel.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::hetero::dna;

Strand random_strand(std::size_t n, core::Rng& rng) {
  Strand out(n);
  for (auto& b : out) b = static_cast<Base>(rng.below(4));
  return out;
}

std::vector<std::pair<Strand, Strand>> make_pairs(std::size_t count,
                                                  std::size_t length) {
  core::Rng rng(99);
  ChannelParams noise;
  noise.substitution_rate = 0.01;
  noise.insertion_rate = 0.005;
  noise.deletion_rate = 0.005;
  std::vector<std::pair<Strand, Strand>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto a = random_strand(length, rng);
    auto b = corrupt_strand(a, noise, rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

void BM_EditDistanceFullDp(benchmark::State& state) {
  const auto pairs = make_pairs(64, static_cast<std::size_t>(state.range(0)));
  std::uint64_t cells = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(levenshtein_full(a, b));
      cells += dp_cells(a, b);
    }
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EditDistanceFullDp)->Arg(100)->Arg(150)->Arg(200);

void BM_EditDistanceBanded(benchmark::State& state) {
  const auto pairs = make_pairs(64, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(levenshtein_banded(a, b, 12));
    }
  }
}
BENCHMARK(BM_EditDistanceBanded)->Arg(100)->Arg(150)->Arg(200);

void BM_EditDistanceMyers(benchmark::State& state) {
  const auto pairs = make_pairs(64, static_cast<std::size_t>(state.range(0)));
  std::uint64_t cells = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(levenshtein_myers(a, b));
      cells += dp_cells(a, b);
    }
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(cells) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EditDistanceMyers)->Arg(100)->Arg(150)->Arg(200);

/// Measured single-core Myers throughput (GCUPS), for the accelerator table.
double measure_myers_gcups() {
  const auto pairs = make_pairs(256, 150);
  std::uint64_t cells = 0;
  int sink = 0;
  const double ms = report::wall_ms([&] {
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& [a, b] : pairs) {
        sink += levenshtein_myers(a, b);
        cells += dp_cells(a, b);
      }
    }
  });
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(cells) / ms * 1e-6;
}

void print_tables() {
  const double myers_gcups = measure_myers_gcups();

  std::printf("\n=== Fig. 6b: end-to-end DNA storage pipeline ===\n");
  core::TextTable pipe({"error rate", "coverage", "strands", "reads",
                        "clusters", "purity", "byte error rate",
                        "missing chunks"});
  for (const double err : {0.005, 0.01, 0.02}) {
    for (const double cov : {6.0, 10.0}) {
      StorageSimParams params;
      params.payload_bytes = 1024;
      params.channel.substitution_rate = err;
      params.channel.insertion_rate = err / 2;
      params.channel.deletion_rate = err / 2;
      params.channel.mean_coverage = cov;
      params.channel.seed = 42;
      // Widen the clustering threshold with the expected pairwise distance
      // (~2 * error_rate * strand_length between two noisy copies).
      params.clustering.distance_threshold =
          10 + static_cast<int>(600.0 * err);
      const auto r = run_storage_sim(params);
      pipe.add_row({core::TextTable::num(err, 3), core::TextTable::num(cov, 0),
                    std::to_string(r.strands), std::to_string(r.reads),
                    std::to_string(r.clusters),
                    core::TextTable::num(r.cluster_purity, 3),
                    core::TextTable::num(r.byte_error_rate, 4),
                    std::to_string(r.missing_chunks)});
    }
  }
  std::printf("%s", pipe.to_string().c_str());

  report::timing_section(
      "DNAssim stage wall-clock split ([26]: why the FPGA targets "
      "clustering)");
  {
    StorageSimParams params;
    params.payload_bytes = 2048;
    params.channel.mean_coverage = 10.0;
    params.channel.seed = 42;
    const auto r = run_storage_sim(params);
    const double total = r.wall_encode_s + r.wall_channel_s + r.wall_cluster_s +
                         r.wall_consensus_s + r.wall_decode_s;
    core::TextTable wt({"stage", "wall (ms)", "share"});
    const std::pair<const char*, double> stages[] = {
        {"encode", r.wall_encode_s},
        {"channel", r.wall_channel_s},
        {"clustering (edit distance)", r.wall_cluster_s},
        {"consensus", r.wall_consensus_s},
        {"decode", r.wall_decode_s}};
    for (const auto& [name, secs] : stages) {
      wt.add_row({name, core::TextTable::num(secs * 1e3, 2),
                  core::TextTable::num(100.0 * secs / total, 1) + "%"});
    }
    std::printf("%s", wt.to_string().c_str());
  }

  std::printf("\n=== Pre-alignment filters ([33], [34]) in the clustering loop ===\n");
  {
    core::Rng rng(31);
    std::vector<std::uint8_t> payload(1024);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    const auto set = encode_payload(payload, 16);
    ChannelParams channel;
    channel.substitution_rate = 0.01;
    channel.insertion_rate = 0.005;
    channel.deletion_rate = 0.005;
    channel.mean_coverage = 8.0;
    channel.seed = 33;
    const auto reads = simulate_channel(set.strands, channel);
    const ClusterParams params;
    const auto plain = cluster_reads_reference(reads.reads, params);
    const auto filtered = cluster_reads(reads.reads, params);
    core::TextTable ft({"pipeline", "exact kernel calls", "DP cells",
                        "filter rejections", "clusters"});
    ft.add_row({"exact only (banded DP)",
                std::to_string(plain.pair_comparisons),
                core::TextTable::si(
                    static_cast<double>(plain.dp_cells_updated), 2),
                "-", std::to_string(plain.clusters.size())});
    ft.add_row({"length + q-gram prefilter (Myers)",
                std::to_string(filtered.pair_comparisons -
                               filtered.screened_out),
                core::TextTable::si(
                    static_cast<double>(filtered.dp_cells_updated), 2),
                std::to_string(filtered.screened_out),
                std::to_string(filtered.clusters.size())});
    std::printf("%s", ft.to_string().c_str());
    std::printf("-> identical clusters with %.0f%% of candidate pairs "
                "rejected before the exact kernel\n",
                100.0 * static_cast<double>(filtered.screened_out) /
                    static_cast<double>(filtered.pair_comparisons));
  }

  std::printf("\n=== Sec. VI: edit-distance accelerator KPIs (model vs paper) ===\n");
  const EditAcceleratorModel accel;
  const auto kpis = accel.evaluate(1'000'000'000ULL, 150, 150);
  core::TextTable tk({"metric", "paper", "model"});
  tk.add_row({"throughput (TCUPS)", "16.8", core::TextTable::num(kpis.tcups, 2)});
  tk.add_row({"energy efficiency (Mpair/J @150b)", "46",
              core::TextTable::num(kpis.mpairs_per_joule, 1)});
  tk.add_row({"computing efficiency", "~90%",
              core::TextTable::num(accel.config().utilization * 100.0, 0) + "%"});
  tk.add_row({"resource usage", "~90%",
              core::TextTable::num(accel.config().resource_usage * 100.0, 0) + "%"});
  std::printf("%s", tk.to_string().c_str());

  report::timing_section("Accelerator vs measured CPU (Myers bit-parallel)");
  CpuEditProfile cpu;
  cpu.cups = myers_gcups * 1e9;
  core::TextTable cmp({"backend", "GCUPS", "pairs/s (150x150)", "speedup",
                       "energy ratio"});
  const auto vs = compare_backends(accel, cpu, 1'000'000, 150, 150);
  cmp.add_row({"CPU 1-core Myers (measured)",
               core::TextTable::num(myers_gcups, 2),
               core::TextTable::si(cpu.cups / (150.0 * 150.0), 2), "1.0",
               "1.0"});
  cmp.add_row({"Alveo U50 systolic model",
               core::TextTable::num(kpis.tcups * 1000.0, 0),
               core::TextTable::si(kpis.pairs_per_second, 2),
               core::TextTable::num(vs.speedup, 0),
               core::TextTable::num(vs.energy_ratio, 0)});
  std::printf("%s", cmp.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  report::run_micro_timings(argc, argv);
  print_tables();
  return 0;
}
