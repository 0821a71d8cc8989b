// Ablation studies for the design choices DESIGN.md calls out, spanning
// all five thrusts:
//   - Sec. III: loop pipelining vs sequential schedules; Bambu vs Vitis
//     tool profiles on the same kernel,
//   - Sec. IV: MLC level counts vs programming scheme; bit-sliced weight
//     mapping; digital drift compensation on/off,
//   - Sec. V: approximate multiplier/adder choices inside a convolution
//     datapath (quality vs energy),
//   - Sec. VI: outer erasure code (XOR parity + CRC-8 inner code) on/off
//     at low sequencing coverage,
//   - Sec. VII: heterogeneous tensor/vector CU mixes at fixed CU count.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "approx/approx_conv.hpp"
#include "core/table.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/ecc.hpp"
#include "hls/asic_estimate.hpp"
#include "hls/pipelining.hpp"
#include "hls/tool_profile.hpp"
#include "imc/mlc.hpp"
#include "scf/fabric.hpp"

namespace {

using namespace icsc;

void BM_ModuloSchedule(benchmark::State& state) {
  const auto kernel = hls::make_spmv_row_kernel(8);
  hls::ResourceBudget budget;
  budget.alus = 2;
  budget.muls = 2;
  budget.mem_ports = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::schedule_pipelined(kernel, budget));
  }
}
BENCHMARK(BM_ModuloSchedule);

void print_hls_ablation() {
  std::printf("\n=== Sec. III ablation: pipelined vs sequential schedules ===\n");
  core::TextTable t({"kernel", "budget", "II", "depth", "cycles for 4096 iters",
                     "sequential cycles", "speedup"});
  for (const auto& [name, kernel] :
       {std::pair<const char*, hls::Kernel>{"dot16", hls::make_dot_kernel(16)},
        {"spmv_row8", hls::make_spmv_row_kernel(8)}}) {
    for (const int units : {1, 4}) {
      hls::ResourceBudget budget;
      budget.alus = units;
      budget.muls = units;
      budget.mem_ports = units;
      const auto pipelined = hls::schedule_pipelined(kernel, budget);
      const auto sequential = hls::schedule_list(kernel, budget);
      const std::uint64_t pipe_cycles = pipelined.total_cycles(4096);
      const std::uint64_t seq_cycles =
          4096ull * static_cast<std::uint64_t>(sequential.makespan);
      t.add_row({name, std::to_string(units) + " of each",
                 std::to_string(pipelined.ii), std::to_string(pipelined.depth),
                 std::to_string(pipe_cycles), std::to_string(seq_cycles),
                 core::TextTable::num(static_cast<double>(seq_cycles) /
                                          static_cast<double>(pipe_cycles), 1) + "x"});
    }
  }
  std::printf("%s", t.to_string().c_str());

  std::printf("\n=== Sec. III: Bambu vs Vitis HLS (capabilities + same-kernel synthesis) ===\n");
  core::TextTable cap({"feature", "Bambu", "Vitis HLS"});
  for (const auto& row : hls::tool_capability_matrix()) {
    cap.add_row({row.feature, row.bambu, row.vitis});
  }
  std::printf("%s", cap.to_string().c_str());
  const auto kernel = hls::make_dot_kernel(16);
  hls::ResourceBudget budget;
  budget.alus = 4;
  budget.muls = 4;
  const auto device = hls::device_kintex7_410t();
  const auto bambu = hls::synthesize_with_tool(
      kernel, budget, hls::bambu_profile(), hls::InputLanguage::kCpp,
      hls::TargetKind::kAmdFpga, device);
  const auto vitis = hls::synthesize_with_tool(
      kernel, budget, hls::vitis_profile(), hls::InputLanguage::kCpp,
      hls::TargetKind::kAmdFpga, device);
  std::printf("dot16 on XC7K410T: Bambu %d LUTs @ %.0f MHz | Vitis %d LUTs @ "
              "%.0f MHz (same %d-cycle schedule)\n",
              bambu.luts, bambu.fmax_mhz, vitis.luts, vitis.fmax_mhz,
              bambu.cycles);

  std::printf("\n=== Sec. III: the Bambu-only ASIC path (OpenROAD) ===\n");
  core::TextTable at({"target", "area", "clock", "latency (us)",
                      "energy/run (nJ)"});
  at.add_row({"XC7K410T (FPGA)",
              std::to_string(bambu.luts) + " LUTs / " +
                  std::to_string(bambu.dsps) + " DSPs",
              core::TextTable::num(bambu.fmax_mhz, 0) + " MHz",
              core::TextTable::num(bambu.latency_us, 3), "-"});
  for (const auto& node :
       {hls::node_45nm(), hls::node_28nm(), hls::node_12nm()}) {
    const auto asic = hls::synthesize_asic(kernel, budget, node);
    at.add_row({node.name,
                core::TextTable::num(asic.area_mm2 * 1e3, 1) + "e-3 mm^2",
                core::TextTable::num(asic.clock_ghz, 1) + " GHz",
                core::TextTable::num(asic.latency_us, 4),
                core::TextTable::num(asic.energy_per_run_nj, 2)});
  }
  std::printf("%s", at.to_string().c_str());
}

void print_imc_ablation() {
  std::printf("\n=== Sec. IV ablation: reliable MLC levels per programming scheme ===\n");
  core::TextTable t({"device", "single pulse", "4 fixed pulses",
                     "program-and-verify"});
  for (const auto& spec : {imc::rram_spec(), imc::pcm_spec()}) {
    std::string cells[3];
    int i = 0;
    for (const auto scheme :
         {imc::ProgramScheme::kSinglePulse, imc::ProgramScheme::kFixedPulses,
          imc::ProgramScheme::kVerify}) {
      imc::ProgramVerifyConfig pv;
      pv.scheme = scheme;
      cells[i++] =
          std::to_string(imc::reliable_levels(spec, pv, 2000, 7)) + " levels";
    }
    t.add_row({spec.name, cells[0], cells[1], cells[2]});
  }
  std::printf("%s", t.to_string().c_str());

  std::printf("\n=== Sec. IV ablation: digital drift compensation (PCM) ===\n");
  core::TextTable dt({"time", "decay estimate", "acc uncompensated",
                      "acc compensated"});
  for (const auto& [label, seconds] :
       {std::pair{"1 day", 86400.0}, {"1 month", 2.6e6}, {"1 year", 3.15e7}}) {
    const auto r = imc::run_drift_compensation_experiment(seconds, 42);
    dt.add_row({label, core::TextTable::num(r.decay_estimate, 3),
                core::TextTable::num(100.0 * r.accuracy_uncompensated, 1) + "%",
                core::TextTable::num(100.0 * r.accuracy_compensated, 1) + "%"});
  }
  std::printf("%s", dt.to_string().c_str());
}

void print_approx_ablation() {
  std::printf("\n=== Sec. V ablation: approximate operators in a conv datapath ===\n");
  core::TextTable t({"multiplier", "adder", "PSNR vs exact (dB)",
                     "datapath energy"});
  struct Config {
    const char* mul_name;
    const char* add_name;
    approx::ApproxArithConfig config;
  };
  std::vector<Config> configs;
  {
    approx::ApproxArithConfig c;
    configs.push_back({"exact", "exact", c});
  }
  for (const int bits : {4, 8, 12}) {
    approx::ApproxArithConfig c;
    c.multiplier = approx::ApproxArithConfig::Multiplier::kTruncated;
    c.truncated_bits = bits;
    configs.push_back({bits == 4   ? "truncated-4"
                       : bits == 8 ? "truncated-8"
                                   : "truncated-12",
                       "exact", c});
  }
  {
    approx::ApproxArithConfig c;
    c.multiplier = approx::ApproxArithConfig::Multiplier::kMitchell;
    configs.push_back({"Mitchell log", "exact", c});
  }
  {
    approx::ApproxArithConfig c;
    c.adder = approx::ApproxArithConfig::Adder::kLoa;
    c.loa_bits = 10;
    configs.push_back({"exact", "LOA-10", c});
  }
  {
    approx::ApproxArithConfig c;
    c.multiplier = approx::ApproxArithConfig::Multiplier::kMitchell;
    c.adder = approx::ApproxArithConfig::Adder::kLoa;
    c.loa_bits = 10;
    configs.push_back({"Mitchell log", "LOA-10", c});
  }
  for (const auto& cfg : configs) {
    const auto r = approx::evaluate_approx_conv(cfg.config, 64, 11);
    t.add_row({cfg.mul_name, cfg.add_name,
               std::isinf(r.psnr_vs_exact_db)
                   ? "inf (bit-exact)"
                   : core::TextTable::num(r.psnr_vs_exact_db, 1),
               core::TextTable::num(100.0 * r.energy_factor, 0) + "%"});
  }
  std::printf("%s", t.to_string().c_str());
}

void print_dna_ablation() {
  std::printf("\n=== Sec. VI ablation: outer erasure code at low coverage ===\n");
  core::TextTable t({"coverage", "plain byte err", "ECC byte err",
                     "chunks repaired", "overhead"});
  for (const double coverage : {4.0, 6.0, 8.0}) {
    core::Rng rng(77);
    std::vector<std::uint8_t> payload(1024);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));

    hetero::dna::ChannelParams channel;
    channel.substitution_rate = 0.005;
    channel.insertion_rate = 0.0025;
    channel.deletion_rate = 0.0025;
    channel.mean_coverage = coverage;
    channel.seed = 42;

    auto run = [&](bool use_ecc) {
      hetero::dna::EccParams ecc;
      ecc.group_size = 4;  // stronger code for the low-coverage regime
      const auto set = use_ecc
                           ? hetero::dna::encode_payload_ecc(payload, 16, ecc)
                           : hetero::dna::encode_payload(payload, 16);
      const auto reads = hetero::dna::simulate_channel(set.strands, channel);
      auto clusters =
          hetero::dna::cluster_reads(reads.reads, hetero::dna::ClusterParams{});
      std::stable_sort(clusters.clusters.begin(), clusters.clusters.end(),
                       [](const hetero::dna::Cluster& a,
                          const hetero::dna::Cluster& b) {
                         return a.read_indices.size() > b.read_indices.size();
                       });
      const auto consensus =
          hetero::dna::call_all_consensus(reads.reads, clusters.clusters);
      std::vector<std::uint8_t> decoded;
      std::size_t repaired = 0;
      if (use_ecc) {
        const auto r = hetero::dna::decode_payload_ecc(consensus,
                                                       payload.size(), 16, ecc);
        decoded = r.payload;
        repaired = r.repaired_chunks;
      } else {
        decoded =
            hetero::dna::decode_payload(consensus, payload.size(), 16).payload;
      }
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < payload.size(); ++i) {
        if (decoded[i] != payload[i]) ++wrong;
      }
      return std::pair{static_cast<double>(wrong) / payload.size(), repaired};
    };
    const auto [plain_err, plain_rep] = run(false);
    (void)plain_rep;
    const auto [ecc_err, repaired] = run(true);
    t.add_row({core::TextTable::num(coverage, 0),
               core::TextTable::num(plain_err, 4),
               core::TextTable::num(ecc_err, 4), std::to_string(repaired),
               core::TextTable::num(
                   100.0 * (hetero::dna::ecc_overhead(64, {4}) - 1.0), 1) +
                   "%"});
  }
  std::printf("%s", t.to_string().c_str());
}

void print_scf_ablation() {
  std::printf("\n=== Sec. VII ablation: tensor/vector CU mixes (16 CUs total) ===\n");
  scf::TransformerConfig model;
  core::TextTable t({"tensor CUs", "vector CUs", "cycles/block", "GFLOPS",
                     "TFLOPS/W"});
  for (const auto& p : scf::sweep_cu_mix(model, 16)) {
    t.add_row({std::to_string(p.tensor_cus), std::to_string(p.vector_cus),
               core::TextTable::si(p.cycles, 1),
               core::TextTable::num(p.gflops, 1),
               core::TextTable::num(p.tflops_per_watt, 2)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("-> a modest vector-CU pool absorbs the softmax/layernorm/GELU "
              "work the tensor grids execute poorly\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_hls_ablation();
  print_imc_ablation();
  print_approx_ablation();
  print_dna_ablation();
  print_scf_ablation();
  return 0;
}
