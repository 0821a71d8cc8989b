// Reproduces Fig. 5 (the end-to-end DNN pipeline for medical image
// segmentation) and the Sec. VI claims: computational storage buys up to
// ~10% training-time reduction and ~10% inference-throughput improvement;
// persistent memory / low-latency SSDs are alternative I/O paths.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/table.hpp"
#include "hetero/dl_pipeline.hpp"
#include "hetero/unet_profile.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::hetero;

void BM_PipelineModel(benchmark::State& state) {
  PipelineConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_pipeline(config));
  }
}
BENCHMARK(BM_PipelineModel);

void print_stage_breakdown(const char* label, const PipelineResult& r) {
  std::printf(
      "%-28s storage %6.2f ms | preprocess %6.2f ms | h2d %5.2f ms | "
      "compute %6.2f ms | d2h %5.2f ms\n",
      label, r.per_batch.storage_s * 1e3, r.per_batch.preprocess_s * 1e3,
      r.per_batch.h2d_s * 1e3, r.per_batch.compute_s * 1e3,
      r.per_batch.d2h_s * 1e3);
}

void print_tables() {
  std::printf("\n=== Fig. 5: per-batch stage breakdown (training, GPU) ===\n");
  PipelineConfig baseline;
  print_stage_breakdown("NVMe + host preprocess", run_pipeline(baseline));
  PipelineConfig comp = baseline;
  comp.io_path = IoPath::kComputationalStorage;
  comp.storage = storage_computational_ssd();
  print_stage_breakdown("computational storage", run_pipeline(comp));
  PipelineConfig pmem = baseline;
  pmem.io_path = IoPath::kPmemHostPreprocess;
  pmem.storage = storage_pmem();
  print_stage_breakdown("PMEM + host preprocess", run_pipeline(pmem));

  std::printf("\n=== Sec. VI claims: I/O-path optimisation gains ===\n");
  core::TextTable t({"I/O path", "train epoch (s)", "train gain",
                     "infer (samples/s)", "infer gain"});
  auto row = [&](const char* name, const PipelineConfig& cfg_train) {
    PipelineConfig cfg_infer = cfg_train;
    cfg_infer.training = false;
    PipelineConfig base_train;
    PipelineConfig base_infer;
    base_infer.training = false;
    const auto rt = run_pipeline(cfg_train);
    const auto ri = run_pipeline(cfg_infer);
    const auto bt = run_pipeline(base_train);
    const auto bi = run_pipeline(base_infer);
    t.add_row({name, core::TextTable::num(rt.epoch_seconds, 2),
               core::TextTable::num(
                   100.0 * relative_improvement(bt, rt, true), 1) + "%",
               core::TextTable::num(ri.samples_per_second, 1),
               core::TextTable::num(
                   100.0 * relative_improvement(bi, ri, false), 1) + "%"});
  };
  row("NVMe + host preprocess (base)", baseline);
  PipelineConfig sata = baseline;
  sata.storage = storage_sata_ssd();
  row("SATA + host preprocess", sata);
  row("computational storage [23]", comp);
  row("PMEM + host preprocess", pmem);
  PipelineConfig lowlat = baseline;
  lowlat.io_path = IoPath::kPmemHostPreprocess;
  lowlat.storage = storage_low_latency_ssd();
  row("low-latency SSD", lowlat);
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "paper claim: training time reduction up to 10%%, inference throughput "
      "improvement up to 10%%\n");

  // Same study with the workload derived from the UNet layer description
  // instead of hand-set constants (gains compared within the workload).
  {
    PipelineConfig unet_base;
    unet_base.workload = workload_from_unet(256, 32, 4);
    PipelineConfig unet_comp = unet_base;
    unet_comp.io_path = IoPath::kComputationalStorage;
    unet_comp.storage = storage_computational_ssd();
    const auto bt = run_pipeline(unet_base);
    const auto ct = run_pipeline(unet_comp);
    PipelineConfig unet_base_i = unet_base;
    unet_base_i.training = false;
    PipelineConfig unet_comp_i = unet_comp;
    unet_comp_i.training = false;
    const auto bi = run_pipeline(unet_base_i);
    const auto ci = run_pipeline(unet_comp_i);
    std::printf(
        "UNet-derived workload (%s): computational storage gives %.1f%% "
        "training reduction, %.1f%% inference gain\n",
        unet_base.workload.name.c_str(),
        100.0 * relative_improvement(bt, ct, true),
        100.0 * relative_improvement(bi, ci, false));
  }

  std::printf("\n=== Sec. VI profiling campaign: UNet(256, 32ch, d4) per device ===\n");
  const auto layers = make_unet_layers(256, 32, 4);
  core::TextTable up({"device", "forward (ms)", "sustained GFLOPS",
                      "memory-bound share", "samples/s"});
  for (const auto& dev :
       {profile_server_cpu(), profile_hpc_gpu(), profile_fpga_card()}) {
    const auto summary = summarize_profile(profile_network(layers, dev));
    up.add_row({dev.name, core::TextTable::num(summary.total_seconds * 1e3, 2),
                core::TextTable::num(summary.sustained_gflops, 0),
                core::TextTable::num(100.0 * summary.memory_bound_fraction, 1) + "%",
                core::TextTable::num(1.0 / summary.total_seconds, 0)});
  }
  std::printf("%s", up.to_string().c_str());

  std::printf("\n--- hottest layers on the GPU (roofline) ---\n");
  const auto gpu_profiles = profile_network(layers, profile_hpc_gpu());
  core::TextTable lt({"layer", "GFLOP", "AI (F/B)", "time (us)", "bound"});
  std::vector<const LayerProfile*> sorted;
  for (const auto& p : gpu_profiles) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const LayerProfile* a, const LayerProfile* b) {
              return a->seconds > b->seconds;
            });
  for (std::size_t i = 0; i < 6 && i < sorted.size(); ++i) {
    const auto& p = *sorted[i];
    lt.add_row({p.shape.name, core::TextTable::num(p.shape.gflops(), 2),
                core::TextTable::num(p.shape.arithmetic_intensity(), 1),
                core::TextTable::num(p.seconds * 1e6, 1),
                p.memory_bound ? "memory" : "compute"});
  }
  std::printf("%s", lt.to_string().c_str());

  std::printf("\n=== Device roofline reference (Sec. VI profiling) ===\n");
  core::TextTable rf({"device", "peak GFLOPS", "mem BW (GB/s)",
                      "ridge (FLOP/B)", "GFLOPS/W"});
  for (const auto& dev :
       {profile_server_cpu(), profile_hpc_gpu(), profile_fpga_card()}) {
    rf.add_row({dev.name, core::TextTable::si(dev.peak_gflops, 1),
                core::TextTable::num(dev.mem_bandwidth_gbs, 0),
                core::TextTable::num(ridge_point(dev), 1),
                core::TextTable::num(peak_gflops_per_watt(dev), 1)});
  }
  std::printf("%s", rf.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  report::run_micro_timings(argc, argv);
  print_tables();
  return 0;
}
