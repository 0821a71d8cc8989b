// Observability-layer overhead study (core/trace): verifies the cost
// contract that instrumentation left compiled in but runtime-disabled is
// effectively free, and produces the Chrome trace_event JSON artifact CI
// uploads for chrome://tracing / Perfetto inspection.
//
// Two measurements per subsystem workload (DSE, HTCONV, IMC, DNA, SCF):
//   disabled_ms  -- wall clock with tracing runtime-disabled (the default),
//   enabled_ms   -- wall clock with tracing recording.
// The disabled-path overhead is computed analytically from the calibrated
// per-site cost (one relaxed load + branch) times the number of span sites
// the enabled run actually hit; the acceptance gate is < 3% per workload.
//
//   bench_observability [--trace-out PATH] [google-benchmark flags]
//
// Exit status is nonzero when any workload exceeds the disabled-path
// budget, so CI fails loudly instead of silently shipping slow macros.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "approx/fsrcnn.hpp"
#include "core/image.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/tensor.hpp"
#include "core/trace.hpp"
#include "hetero/dna/storage_sim.hpp"
#include "hls/dse.hpp"
#include "imc/tile.hpp"
#include "report.hpp"
#include "scf/fabric.hpp"

namespace {

using namespace icsc;
namespace trace = icsc::core::trace;

volatile double g_sink = 0.0;  // defeats dead-code elimination of workloads

// ---------------------------------------------------------------------------
// Micro timings: the disabled macro path is the cost every hot loop in the
// framework pays unconditionally, so it gets a google-benchmark entry.

void BM_SpanDisabled(benchmark::State& state) {
  trace::set_enabled(false);
  for (auto _ : state) {
    ICSC_TRACE_SPAN("bench/disabled");
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_CounterDisabled(benchmark::State& state) {
  trace::set_enabled(false);
  for (auto _ : state) {
    ICSC_TRACE_COUNT("bench.disabled", 1);
  }
}
BENCHMARK(BM_CounterDisabled);

// ---------------------------------------------------------------------------
// Calibration: ns per span site on the disabled and enabled paths,
// measured with plain steady_clock loops so the study does not depend on
// google-benchmark's reporter.

double calibrate_span_ns(bool enabled) {
  trace::set_enabled(enabled);
  // Enabled spans land in the per-thread ring (capacity 64Ki); half the
  // capacity keeps the measurement on the record path, never the drop path.
  const std::size_t iters = enabled ? (1u << 15) : (1u << 20);
  if (enabled) trace::reset();
  const double ms = report::best_of_ms(3, [&] {
    if (enabled) trace::reset();
    for (std::size_t i = 0; i < iters; ++i) {
      ICSC_TRACE_SPAN("bench/calibration");
    }
  });
  if (enabled) trace::reset();
  trace::set_enabled(false);
  return ms * 1e6 / static_cast<double>(iters);
}

// ---------------------------------------------------------------------------
// Subsystem workloads: one per thrust, each driving the instrumented hot
// path (dse/*, conv|htconv/*, imc/*, dna/*, scf/*).

void workload_dse() {
  hls::DseConfig config;
  config.iterations = 2048;
  const auto result = hls::dse_exhaustive(hls::make_spmv_row_kernel(8), config);
  g_sink = g_sink + static_cast<double>(result.evaluations);
}

void workload_conv() {
  approx::FsrcnnConfig cfg;
  cfg.d = 25;
  cfg.s = 5;
  cfg.m = 1;
  const approx::Fsrcnn model(cfg);
  const auto scene =
      core::make_scene(core::SceneKind::kNaturalComposite, 128, 128, 7);
  const auto lr = core::downscale2x_aligned(scene);
  const approx::QuantConfig q16;
  const auto fovea = approx::FovealRegion::centered(64, 64, 0.06);
  const auto sr = model.upscale(lr, q16, approx::TconvMode::kFoveated, fovea);
  g_sink = g_sink + sr.at(0, 0);
}

void workload_imc() {
  core::Rng rng(11);
  core::TensorF w({96, 96});
  for (auto& v : w.data()) v = static_cast<float>(rng.normal(0.0, 0.5));
  imc::TiledMatvec tiled(w, imc::TileConfig{});
  std::vector<float> x(96, 0.5f);
  for (int i = 0; i < 8; ++i) {
    const auto y = tiled.matvec(x);
    g_sink = g_sink + y[0];
  }
}

void workload_dna() {
  hetero::dna::ArchivalSimParams params;
  params.payload_bytes = 512;
  params.channel.mean_coverage = 3.0;
  const auto r = hetero::dna::run_archival_sim(params);
  g_sink = g_sink + r.byte_error_rate;
}

void workload_scf() {
  const std::vector<scf::KernelCall> calls{
      {scf::KernelCall::Kind::kGemm, 128, 128, 128, "qkv"},
      {scf::KernelCall::Kind::kSoftmax, 2048, 0, 0, "softmax"},
      {scf::KernelCall::Kind::kGemm, 128, 128, 512, "ffn"},
      {scf::KernelCall::Kind::kLayerNorm, 2048, 0, 0, "norm"},
  };
  const scf::ScalableComputeFabric fabric{scf::FabricConfig{}};
  for (int i = 0; i < 32; ++i) {
    const auto stats = fabric.run_trace(calls);
    g_sink = g_sink + static_cast<double>(stats.cycles);
  }
}

struct Workload {
  const char* name;
  void (*fn)();
};

constexpr Workload kWorkloads[] = {
    {"dse", workload_dse},   {"conv", workload_conv}, {"imc", workload_imc},
    {"dna", workload_dna},   {"scf", workload_scf},
};

constexpr double kDisabledBudgetPct = 3.0;

int run_overhead_study(const std::string& trace_out) {
  if (core::parallel_threads() <= 1) core::set_parallel_threads(4);
  std::printf("\n=== Observability: instrumentation overhead (%zu threads) "
              "===\n", core::parallel_threads());

  const double span_disabled_ns = calibrate_span_ns(false);
  const double span_enabled_ns = calibrate_span_ns(true);

  const int repeats = 3;
  core::TextTable t({"workload", "disabled (ms)", "enabled (ms)",
                     "spans", "disabled overhead", "enabled overhead"});
  bool all_within_budget = true;
  trace::reset();
  for (const auto& w : kWorkloads) {
    trace::set_enabled(false);
    const double disabled_ms = report::best_of_ms(repeats, w.fn);

    trace::set_enabled(true);
    const std::size_t spans_before = trace::collect().size();
    const double enabled_ms = report::best_of_ms(repeats, w.fn);
    const std::size_t spans_recorded =
        trace::collect().size() - spans_before;
    trace::set_enabled(false);

    // Sites hit scale linearly with repeats; per-run count is the fair
    // multiplier for the analytic disabled-path estimate.
    const double sites_per_run =
        static_cast<double>(spans_recorded) / repeats;
    const double disabled_overhead_pct =
        disabled_ms > 0.0
            ? 100.0 * sites_per_run * span_disabled_ns / (disabled_ms * 1e6)
            : 0.0;
    const double enabled_overhead_pct =
        disabled_ms > 0.0 ? 100.0 * (enabled_ms / disabled_ms - 1.0) : 0.0;
    const bool within = disabled_overhead_pct < kDisabledBudgetPct;
    all_within_budget = all_within_budget && within;

    t.add_row({w.name, core::TextTable::num(disabled_ms, 2),
               core::TextTable::num(enabled_ms, 2),
               std::to_string(static_cast<std::size_t>(sites_per_run)),
               core::TextTable::num(disabled_overhead_pct, 4) + "%",
               core::TextTable::num(enabled_overhead_pct, 1) + "%"});
    report::Json("observability")
        .str("workload", w.name)
        .num("disabled_ms", disabled_ms, 3)
        .num("enabled_ms", enabled_ms, 3)
        .num("spans_per_run", sites_per_run, 1)
        .num("disabled_overhead_pct", disabled_overhead_pct, 5)
        .num("enabled_overhead_pct", enabled_overhead_pct, 2)
        .flag("within_budget", within)
        .print();
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("%s", trace::aggregate_table().c_str());

  trace::write_chrome_json(trace_out);
  report::Json("observability_summary")
      .num("span_disabled_ns", span_disabled_ns, 3)
      .num("span_enabled_ns", span_enabled_ns, 3)
      .num("trace_events", trace::collect().size())
      .num("dropped", trace::dropped())
      .num("budget_pct", kDisabledBudgetPct, 1)
      .flag("all_within_budget", all_within_budget)
      .str("trace_file", trace_out)
      .print();
  return all_within_budget ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out = "observability_trace.json";
  int kept = std::min(argc, 1);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  report::run_micro_timings(kept, argv);
  return run_overhead_study(trace_out);
}
