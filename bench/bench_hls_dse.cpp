// Reproduces the Sec. III DSE+HLS toolchain experiments: exploring unroll
// factors and resource budgets for AI/graph kernels with performance and
// resource estimation, Pareto-frontier extraction, and the strategy
// ablation (exhaustive vs random vs hill climbing) measured by Pareto
// hypervolume per evaluation.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>

#include "core/parallel.hpp"
#include "core/table.hpp"
#include "hls/dse.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::hls;

void BM_ExhaustiveDse(benchmark::State& state) {
  const auto kernel = make_dot_kernel(16);
  DseConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dse_exhaustive(kernel, config));
  }
}
BENCHMARK(BM_ExhaustiveDse)->Unit(benchmark::kMillisecond);

void BM_ScheduleKernel(benchmark::State& state) {
  const auto kernel =
      unroll_kernel(make_dot_kernel(16), static_cast<int>(state.range(0)));
  ResourceBudget budget;
  budget.alus = 4;
  budget.muls = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_list(kernel, budget));
  }
}
BENCHMARK(BM_ScheduleKernel)->Arg(1)->Arg(8);

/// Serial-vs-parallel wall-clock comparison on a >= 500-point grid, with a
/// bit-exactness cross-check and a machine-readable JSON line per row.
/// Returns false when a parallel result differs from its serial run.
bool print_parallel_comparison() {
  report::timing_section("Parallel DSE: serial vs thread pool (" +
                         std::to_string(core::parallel_threads()) +
                         " threads)");
  const auto kernel = make_spmv_row_kernel(8);
  DseConfig config;
  config.iterations = 4096;
  config.space.unroll_factors = {1, 2, 3, 4, 6, 8};
  config.space.alu_counts = {1, 2, 3, 4, 5, 6, 7, 8};
  config.space.mul_counts = {1, 2, 3, 4};
  config.space.mem_port_counts = {1, 2, 3, 4};  // 6*8*4*4 = 768 points

  core::TextTable t({"strategy", "points", "serial (ms)", "parallel (ms)",
                     "speedup", "bit-identical"});
  bool all_identical = true;
  auto compare = [&](const char* name,
                     const std::function<DseResult()>& run) {
    DseResult serial_result, parallel_result;
    const double serial_ms = report::wall_ms([&] {
      core::ScopedSerial guard;
      serial_result = run();
    });
    const double parallel_ms =
        report::wall_ms([&] { parallel_result = run(); });
    const bool identical =
        dse_results_identical(serial_result, parallel_result);
    all_identical = all_identical && identical;
    const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
    t.add_row({name, std::to_string(serial_result.evaluations),
               core::TextTable::num(serial_ms, 1),
               core::TextTable::num(parallel_ms, 1),
               core::TextTable::num(speedup, 2) + "x",
               identical ? "yes" : "NO"});
    report::Json(std::string("dse_") + name)
        .num("grid_points", serial_result.evaluations)
        .num("threads", core::parallel_threads())
        .num("serial_ms", serial_ms, 3)
        .num("parallel_ms", parallel_ms, 3)
        .num("speedup", speedup, 3)
        .num("cache_hits", parallel_result.cache_hits)
        .num("cache_misses", parallel_result.cache_misses)
        .flag("identical", identical)
        .print();
  };
  compare("exhaustive", [&] { return dse_exhaustive(kernel, config); });
  compare("random", [&] { return dse_random(kernel, config, 600, 17); });
  std::printf("%s", t.to_string().c_str());
  return all_identical;
}

void print_tables() {
  std::printf("\n=== Sec. III: DSE over the SpMV row kernel (nnz=8) ===\n");
  const auto kernel = make_spmv_row_kernel(8);
  DseConfig config;
  config.iterations = 4096;
  const auto result = dse_exhaustive(kernel, config);
  std::printf("space: %zu evaluated configurations, %zu on the Pareto front\n",
              result.evaluations, result.front.size());
  core::TextTable t({"unroll", "ALUs", "MULs", "mem ports", "cycles/body",
                     "Fmax (MHz)", "latency (us)", "LUTs", "DSPs"});
  for (const auto& fp : result.front) {
    const auto& p = result.evaluated[fp.id];
    t.add_row({std::to_string(p.unroll), std::to_string(p.budget.alus),
               std::to_string(p.budget.muls),
               std::to_string(p.budget.mem_ports),
               std::to_string(p.cost.cycles),
               core::TextTable::num(p.cost.fmax_mhz, 0),
               core::TextTable::num(p.total_latency_us, 1),
               std::to_string(p.cost.luts), std::to_string(p.cost.dsps)});
  }
  std::printf("%s", t.to_string().c_str());

  std::printf("\n=== DSE strategy ablation (SpMV row kernel, nnz=8) ===\n");
  const auto spmv = make_spmv_row_kernel(8);
  DseConfig spmv_config;
  spmv_config.iterations = 16384;
  const auto exhaustive = dse_exhaustive(spmv, spmv_config);
  // Reference box just beyond the exhaustive front, so hypervolume
  // differences between strategies are visible.
  double ref_lat = 0.0, ref_area = 0.0;
  for (const auto& fp : exhaustive.front) {
    ref_lat = std::max(ref_lat, 1.2 * fp.objectives[0]);
    ref_area = std::max(ref_area, 1.2 * fp.objectives[1]);
  }
  const auto random16 = dse_random(spmv, spmv_config, 16, 3);
  const auto random48 = dse_random(spmv, spmv_config, 48, 3);
  const auto climbed = dse_hill_climb(spmv, spmv_config, 3, 3);
  core::TextTable st({"strategy", "evaluations", "front size", "hypervolume",
                      "% of exhaustive"});
  const double full_hv = dse_hypervolume(exhaustive, ref_lat, ref_area);
  auto row = [&](const char* name, const DseResult& r) {
    const double hv = dse_hypervolume(r, ref_lat, ref_area);
    st.add_row({name, std::to_string(r.evaluations),
                std::to_string(r.front.size()), core::TextTable::si(hv, 2),
                core::TextTable::num(100.0 * hv / full_hv, 1) + "%"});
  };
  row("exhaustive", exhaustive);
  row("random (16 samples)", random16);
  row("random (48 samples)", random48);
  row("hill climb (3 restarts)", climbed);
  std::printf("%s", st.to_string().c_str());

  std::printf("\n=== DSE with the pipeline directive (SpMV row kernel) ===\n");
  {
    DseConfig seq_cfg;
    seq_cfg.iterations = 16384;
    DseConfig pipe_cfg = seq_cfg;
    pipe_cfg.pipelined = true;
    const auto kernel_p = make_spmv_row_kernel(8);
    core::TextTable pt({"budget (ALU/MUL/port)", "sequential latency (us)",
                        "pipelined latency (us)", "speedup"});
    for (const int units : {1, 2, 4}) {
      ResourceBudget budget;
      budget.alus = units;
      budget.muls = units;
      budget.mem_ports = units;
      const auto seq_pt = evaluate_design(kernel_p, 1, budget, seq_cfg);
      const auto pipe_pt = evaluate_design(kernel_p, 1, budget, pipe_cfg);
      pt.add_row({std::to_string(units) + "/" + std::to_string(units) + "/" +
                      std::to_string(units),
                  core::TextTable::num(seq_pt.total_latency_us, 1),
                  core::TextTable::num(pipe_pt.total_latency_us, 1),
                  core::TextTable::num(
                      seq_pt.total_latency_us / pipe_pt.total_latency_us, 2) +
                      "x"});
    }
    std::printf("%s", pt.to_string().c_str());
  }

  std::printf("\n=== Pipelining: min initiation interval vs resources ===\n");
  core::TextTable it({"kernel", "1 ALU/1 MUL/1 port", "4/4/2", "8/8/4"});
  for (const auto& [name, k] :
       {std::pair<const char*, Kernel>{"fir16", make_fir_kernel(16)},
        {"dot16", make_dot_kernel(16)},
        {"spmv_row8", make_spmv_row_kernel(8)},
        {"bfs_expand8", make_bfs_expand_kernel(8)}}) {
    ResourceBudget b1{1, 1, 1, 1}, b4{4, 4, 1, 2}, b8{8, 8, 1, 4};
    it.add_row({name, std::to_string(min_initiation_interval(k, b1)),
                std::to_string(min_initiation_interval(k, b4)),
                std::to_string(min_initiation_interval(k, b8))});
  }
  std::printf("%s", it.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  report::run_micro_timings(argc, argv);
  const bool identical = print_parallel_comparison();
  print_tables();
  return identical ? 0 : 1;
}
