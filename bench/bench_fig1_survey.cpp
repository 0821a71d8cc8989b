// Reproduces Fig. 1: "Trends of state-of-the-art AI accelerators in terms
// of TOPs/W" -- the scatter of computational speed vs power with the
// platform classes (CPU / GPU / TPU-NPU / FPGA / CGRA / IMC). The series
// are the curated survey dataset ([1], [2]) plus the points produced by
// this framework's own models (DIMC macro, CU, 16-CU SCF).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "core/rng.hpp"
#include "core/table.hpp"
#include "imc/dimc.hpp"
#include "scf/fabric.hpp"
#include "scf/kpi.hpp"

namespace {

using namespace icsc;
using namespace icsc::scf;

void BM_SurveyRollup(benchmark::State& state) {
  for (auto _ : state) {
    auto survey = fig1_survey();
    benchmark::DoNotOptimize(survey);
  }
}
BENCHMARK(BM_SurveyRollup);

/// Model-derived points appended to the survey scatter.
std::vector<SurveyEntry> model_points() {
  std::vector<SurveyEntry> points;

  // Our DIMC macro model at 500 MHz (Sec. IV).
  {
    core::Rng rng(1);
    core::TensorF w({64, 64});
    for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
    imc::DimcMacro macro(w, imc::DimcConfig{});
    const double tops_w = macro.tops_per_watt(500.0, 2.0);
    const double ops = static_cast<double>(macro.ops_per_mvm()) * 500e6 / 8.0;
    points.push_back({"icsc-f2 DIMC macro (model)", PlatformClass::kImc,
                      ops * 1e-12, ops * 1e-12 / tops_w, 2025, "4b"});
  }

  // Our CU model (Sec. VII).
  {
    const ComputeUnit cu;
    const auto stats = cu.run_gemm(768, 768, 768);
    const double tops = stats.gflops(cu.config().fclk_mhz) * 1e-3;
    points.push_back({"icsc-f2 CU (model)", PlatformClass::kRiscvSoc, tops,
                      cu.average_power_w(stats), 2025, "bf16"});
  }

  // Our 16-CU SCF running a transformer block.
  {
    TransformerConfig model;
    const auto trace = kernel_trace(model);
    FabricConfig config;
    config.num_cus = 16;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    points.push_back({"icsc-f2 SCF-16 (model)", PlatformClass::kRiscvSoc,
                      stats.gflops(config.cu.fclk_mhz) * 1e-3,
                      fabric.average_power_w(stats), 2025, "bf16"});
  }
  return points;
}

void print_tables() {
  std::printf("\n=== Fig. 1: SoA AI accelerators, TOPs vs W vs TOPs/W ===\n");
  auto entries = fig1_survey();
  const auto models = model_points();
  entries.insert(entries.end(), models.begin(), models.end());
  std::sort(entries.begin(), entries.end(),
            [](const SurveyEntry& a, const SurveyEntry& b) {
              return a.tops_per_watt() > b.tops_per_watt();
            });
  core::TextTable t({"accelerator", "class", "precision", "TOPS", "power (W)",
                     "TOPs/W"});
  for (const auto& e : entries) {
    t.add_row({e.name, platform_class_name(e.cls), e.precision,
               core::TextTable::num(e.tops, 2),
               core::TextTable::num(e.power_w, 3),
               core::TextTable::num(e.tops_per_watt(), 2)});
  }
  std::printf("%s", t.to_string().c_str());

  // The qualitative claims of Sec. II about Fig. 1.
  double best_cpu = 0, best_gpu = 0, best_imc = 0;
  for (const auto& e : entries) {
    if (e.cls == PlatformClass::kCpu) best_cpu = std::max(best_cpu, e.tops_per_watt());
    if (e.cls == PlatformClass::kGpu) best_gpu = std::max(best_gpu, e.tops_per_watt());
    if (e.cls == PlatformClass::kImc) best_imc = std::max(best_imc, e.tops_per_watt());
  }
  std::printf(
      "\nclass maxima (TOPs/W): CPU %.2f < GPU %.2f < IMC %.2f  -- matches the"
      " Fig. 1 ordering\n",
      best_cpu, best_gpu, best_imc);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
