// Reproduces Fig. 7: "RISC-V acceleration State-of-the-Art" -- the
// power/performance scatter of RISC-V DL and Transformer accelerators,
// showing the 100mW-1W cluster and the >1W HPC-inference zone the ICSC
// Flagship 2 project targets with the SCF.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "core/table.hpp"
#include "scf/fabric.hpp"
#include "scf/kpi.hpp"

namespace {

using namespace icsc;
using namespace icsc::scf;

void BM_ScfPoint(benchmark::State& state) {
  TransformerConfig model;
  const auto trace = kernel_trace(model);
  FabricConfig config;
  config.num_cus = static_cast<int>(state.range(0));
  const ScalableComputeFabric fabric(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.run_trace(trace));
  }
}
BENCHMARK(BM_ScfPoint)->Arg(1)->Arg(16);

void print_tables() {
  std::printf("\n=== Fig. 7: RISC-V DL/Transformer accelerators ===\n");
  auto entries = fig7_survey();

  // Our model points: single CU and 16-CU SCF (the >1W target zone).
  TransformerConfig model;
  const auto trace = kernel_trace(model);
  for (const int cus : {1, 16, 64}) {
    FabricConfig config;
    config.num_cus = cus;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    entries.push_back({"icsc-f2 SCF-" + std::to_string(cus) + " (model)",
                       fabric.average_power_w(stats),
                       stats.gflops(config.cu.fclk_mhz), "bf16", true});
  }

  std::sort(entries.begin(), entries.end(),
            [](const RiscvEntry& a, const RiscvEntry& b) {
              return a.power_w < b.power_w;
            });
  core::TextTable t({"accelerator", "power (W)", "GOPS", "GOPS/W",
                     "precision", "EU", "power band"});
  for (const auto& e : entries) {
    const char* band = e.power_w < 0.1   ? "<100mW"
                       : e.power_w <= 1.0 ? "100mW-1W (cluster)"
                                          : ">1W (ICSC target)";
    t.add_row({e.name, core::TextTable::num(e.power_w, 3),
               core::TextTable::si(e.gops, 1),
               core::TextTable::num(e.gops_per_watt(), 1), e.precision,
               e.eu_based ? "yes" : "no", band});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "\nfraction of surveyed accelerators in the 100mW-1W cluster: %.0f%% "
      "(paper: \"clustered, especially in the 100mW-1W power range\")\n",
      100.0 * fig7_fraction_in_power_band(0.04, 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
