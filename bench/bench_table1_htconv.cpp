// Reproduces Table I and the Sec. V claims (Figs. 3/4):
//   - MAC savings > 80% for FSRCNN(25,5,1)+HTCONV vs FSRCNN(56,12,4),
//   - PSNR reduction < 10% vs the conventional-TCONV evaluation,
//   - implementation columns (LUT/FF/DSP/BRAM/Fmax/power/energy eff.)
//     from the analytic FPGA cost model next to the published rows.
//
// PSNR is measured on synthetic scenes (no Set5/Set14 offline) at reduced
// frame size -- MAC ratios are resolution-independent and the cost model
// handles the full-HD columns. google-benchmark times the HTCONV kernel
// itself; the tables print after the timing runs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "approx/fpga_cost.hpp"
#include "approx/fsrcnn.hpp"
#include "core/parallel.hpp"
#include "core/table.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::approx;

FsrcnnConfig compact_model() {
  FsrcnnConfig cfg;
  cfg.d = 25;
  cfg.s = 5;
  cfg.m = 1;
  cfg.upsampler = FsrcnnConfig::Upsampler::kCatmullRom;
  return cfg;
}

void BM_HtconvFoveated(benchmark::State& state) {
  const Fsrcnn model(compact_model());
  const auto scene =
      core::make_scene(core::SceneKind::kNaturalComposite, 128, 128, 7);
  const auto lr = core::downscale2x_aligned(scene);
  const QuantConfig q16;
  const auto fovea = FovealRegion::centered(64, 64, 0.06);
  for (auto _ : state) {
    auto sr = model.upscale(lr, q16, TconvMode::kFoveated, fovea);
    benchmark::DoNotOptimize(sr);
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_HtconvFoveated)->Unit(benchmark::kMillisecond);

void BM_TconvExact(benchmark::State& state) {
  const Fsrcnn model(compact_model());
  const auto scene =
      core::make_scene(core::SceneKind::kNaturalComposite, 128, 128, 7);
  const auto lr = core::downscale2x_aligned(scene);
  const QuantConfig q16;
  for (auto _ : state) {
    auto sr = model.upscale(lr, q16);
    benchmark::DoNotOptimize(sr);
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_TconvExact)->Unit(benchmark::kMillisecond);

/// Serial-vs-parallel wall clock for the convolution stack (exact TCONV and
/// foveated HTCONV), with a bit-exactness check on the SR output and a
/// machine-readable JSON line per mode. Returns false when a parallel
/// output differs from its serial run.
bool print_parallel_comparison() {
  report::timing_section("Parallel convolution: serial vs thread pool (" +
                         std::to_string(core::parallel_threads()) +
                         " threads)");
  const Fsrcnn model(compact_model());
  const auto scene =
      core::make_scene(core::SceneKind::kNaturalComposite, 256, 256, 7);
  const auto lr = core::downscale2x_aligned(scene);
  const QuantConfig q16;
  const auto fovea = FovealRegion::centered(128, 128, 0.06);
  const int repeats = 3;

  core::TextTable t({"kernel", "serial (ms)", "parallel (ms)", "speedup",
                     "bit-identical"});
  bool all_identical = true;
  auto compare = [&](const char* name, TconvMode mode,
                     const FovealRegion& region) {
    core::Image serial_out(1, 1), parallel_out(1, 1);
    auto time_mode = [&](core::Image& out) {
      return report::wall_ms([&] {
        for (int rep = 0; rep < repeats; ++rep) {
          out = model.upscale(lr, q16, mode, region);
        }
      }) / repeats;
    };
    double serial_ms = 0.0;
    {
      core::ScopedSerial guard;
      serial_ms = time_mode(serial_out);
    }
    const double parallel_ms = time_mode(parallel_out);
    const bool identical = serial_out.tensor() == parallel_out.tensor();
    all_identical = all_identical && identical;
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
    t.add_row({name, core::TextTable::num(serial_ms, 1),
               core::TextTable::num(parallel_ms, 1),
               core::TextTable::num(speedup, 2) + "x",
               identical ? "yes" : "NO"});
    report::Json(std::string("htconv_") + name)
        .num("lr_size", 128)
        .num("threads", core::parallel_threads())
        .num("serial_ms", serial_ms, 3)
        .num("parallel_ms", parallel_ms, 3)
        .num("speedup", speedup, 3)
        .flag("identical", identical)
        .print();
  };
  compare("tconv_exact", TconvMode::kExact, FovealRegion::full(128, 128));
  compare("htconv_foveated", TconvMode::kFoveated, fovea);
  std::printf("%s", t.to_string().c_str());
  return all_identical;
}

void print_tables() {
  std::printf("\n=== Sec. V claims: MAC savings and PSNR ===\n");
  const Fsrcnn compact(compact_model());
  const Fsrcnn baseline{FsrcnnConfig{}};  // FSRCNN(56,12,4)
  const double foveal_fraction = 0.06;

  const double approx_macs =
      compact.macs_per_lr_pixel(TconvMode::kFoveated, foveal_fraction);
  const double base_macs = baseline.macs_per_lr_pixel(TconvMode::kExact, 1.0);
  const double same_model_macs =
      compact.macs_per_lr_pixel(TconvMode::kExact, 1.0);

  core::TextTable macs({"configuration", "MACs/LR pixel", "savings vs FSRCNN(56,12,4)"});
  auto pct = [&](double m) {
    return core::TextTable::num(100.0 * (1.0 - m / base_macs), 1) + "%";
  };
  macs.add_row({"FSRCNN(56,12,4) TCONV (baseline)",
                core::TextTable::num(base_macs, 0), "0.0%"});
  macs.add_row({"FSRCNN(25,5,1) TCONV",
                core::TextTable::num(same_model_macs, 0), pct(same_model_macs)});
  macs.add_row({"FSRCNN(25,5,1) HTCONV f=0.06 (ours)",
                core::TextTable::num(approx_macs, 0), pct(approx_macs)});
  std::printf("%s", macs.to_string().c_str());
  std::printf("paper claim: >80%% MAC savings -> measured %.1f%%\n",
              100.0 * (1.0 - approx_macs / base_macs));

  core::TextTable psnr_table(
      {"scene", "FP PSNR", "Q16 TCONV", "Q16 HTCONV", "PSNR reduction"});
  const QuantConfig q16;
  QuantConfig fp;
  fp.enabled = false;
  for (const auto& [kind, name] :
       {std::pair{core::SceneKind::kNaturalComposite, "composite"},
        std::pair{core::SceneKind::kEdges, "edges"},
        std::pair{core::SceneKind::kSmoothGradient, "smooth"}}) {
    const auto scene = core::make_scene(kind, 128, 128, 41);
    const auto full = FovealRegion::full(64, 64);
    const auto fovea = FovealRegion::centered(64, 64, foveal_fraction);
    const auto r_fp = evaluate_sr(compact, scene, fp, TconvMode::kExact, full);
    const auto r_q = evaluate_sr(compact, scene, q16, TconvMode::kExact, full);
    const auto r_h =
        evaluate_sr(compact, scene, q16, TconvMode::kFoveated, fovea);
    psnr_table.add_row(
        {name, core::TextTable::num(r_fp.psnr_db, 2),
         core::TextTable::num(r_q.psnr_db, 2),
         core::TextTable::num(r_h.psnr_db, 2),
         core::TextTable::num(100.0 * (1.0 - r_h.psnr_db / r_q.psnr_db), 1) + "%"});
  }
  std::printf("\n%s", psnr_table.to_string().c_str());
  std::printf("paper claim: PSNR reduction < 10%%\n");

  std::printf("\n=== Table I: comparison to FPGA-based SotA solutions ===\n");
  core::TextTable t1({"Method", "In resolution", "Bitwidth", "Technology",
                      "Fmax (MHz)", "Out Thr. (Mpx/s)", "LUTs", "FFs", "DSPs",
                      "BRAM (kB)", "Power (W)", "En.eff (Mpx/s/W)"});
  auto add = [&t1](const Table1Row& row) {
    t1.add_row({row.method, row.in_resolution, row.bitwidth, row.technology,
                core::TextTable::num(row.fmax_mhz, 0),
                core::TextTable::num(row.out_throughput_mpix_s, 2),
                std::to_string(row.luts), std::to_string(row.ffs),
                std::to_string(row.dsps), core::TextTable::num(row.bram_kb, 2),
                row.power_w > 0 ? core::TextTable::num(row.power_w, 2) : "NA",
                row.energy_eff_mpix_per_w > 0
                    ? core::TextTable::num(row.energy_eff_mpix_per_w, 1)
                    : "NA"});
  };
  for (const auto& row : table1_literature()) add(row);
  add(table1_new_published());
  add(table1_new_modeled(SrEngineParams{}));
  std::printf("%s", t1.to_string().c_str());

  std::printf("\n=== Flexible CONV+TCONV engine vs dedicated pair ([16]) ===\n");
  const auto cmp = compare_flexible_engine(SrEngineParams{});
  core::TextTable fx({"engine", "LUTs", "DSPs"});
  fx.add_row({"dedicated CONV", std::to_string(cmp.dedicated_conv.luts),
              std::to_string(cmp.dedicated_conv.dsps)});
  fx.add_row({"dedicated TCONV", std::to_string(cmp.dedicated_tconv.luts),
              std::to_string(cmp.dedicated_tconv.dsps)});
  fx.add_row({"flexible (both modes)", std::to_string(cmp.flexible.luts),
              std::to_string(cmp.flexible.dsps)});
  std::printf("%s", fx.to_string().c_str());
  std::printf("flexible engine saves %.0f%% of the dedicated pair's LUTs at "
              "a %.0f-LUT mode-mux overhead\n",
              100.0 * cmp.area_saving_fraction, cmp.flexible_overhead_luts);
}

}  // namespace

int main(int argc, char** argv) {
  report::run_micro_timings(argc, argv);
  const bool identical = print_parallel_comparison();
  print_tables();
  return identical ? 0 : 1;
}
