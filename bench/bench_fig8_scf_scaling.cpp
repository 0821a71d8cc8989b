// Reproduces the Fig. 8 architecture study: the Scalable Compute Fabric
// template scaled from 1 to 64 Compute Units on a bf16 transformer block,
// with the hierarchical-interconnect and host-dispatch effects that bound
// strong scaling ("The next steps ... include using this and other similar
// CUs to build a scaled-up SCF").
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/table.hpp"
#include "scf/fabric.hpp"

namespace {

using namespace icsc;
using namespace icsc::scf;

void BM_FabricTrace(benchmark::State& state) {
  TransformerConfig model;
  const auto trace = kernel_trace(model);
  FabricConfig config;
  config.num_cus = static_cast<int>(state.range(0));
  const ScalableComputeFabric fabric(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.run_trace(trace));
  }
}
BENCHMARK(BM_FabricTrace)->Arg(1)->Arg(8)->Arg(64);

void print_scaling(const char* title, const TransformerConfig& model,
                   const FabricConfig& base) {
  std::printf("\n=== %s ===\n", title);
  core::TextTable t({"CUs", "speedup", "efficiency", "GFLOPS", "TFLOPS/W"});
  for (const auto& p : strong_scaling(model, base, 64)) {
    t.add_row({std::to_string(p.cus), core::TextTable::num(p.speedup, 2),
               core::TextTable::num(100.0 * p.efficiency, 1) + "%",
               core::TextTable::num(p.gflops, 1),
               core::TextTable::num(p.tflops_per_watt, 2)});
  }
  std::printf("%s", t.to_string().c_str());
}

void print_tables() {
  TransformerConfig small;  // 128 x 256: dispatch/interconnect visible
  TransformerConfig large;
  large.seq_len = 256;
  large.d_model = 512;
  large.heads = 8;
  large.d_ff = 2048;

  print_scaling("Fig. 8 study: strong scaling, transformer block 128x256",
                small, FabricConfig{});
  print_scaling("Fig. 8 study: strong scaling, transformer block 256x512",
                large, FabricConfig{});

  FabricConfig starved;
  starved.interconnect_bytes_per_cycle = 16.0;
  print_scaling("ablation: interconnect-starved fabric (16 B/cycle)", small,
                starved);

  std::printf("\n=== weak scaling (sequence grows with CU count) ===\n");
  core::TextTable wt({"CUs", "seq len", "work-rate speedup", "efficiency",
                      "GFLOPS"});
  for (const auto& p : weak_scaling(small, FabricConfig{}, 64)) {
    wt.add_row({std::to_string(p.cus),
                std::to_string(small.seq_len * static_cast<std::size_t>(p.cus)),
                core::TextTable::num(p.speedup, 2),
                core::TextTable::num(100.0 * p.efficiency, 1) + "%",
                core::TextTable::num(p.gflops, 1)});
  }
  std::printf("%s", wt.to_string().c_str());
  std::printf("-> Gustafson scaling: growing the problem with the fabric "
              "sustains efficiency where strong scaling saturates\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
