// Reproduces the Sec. III SPARTA experiments: parallel multi-threaded
// accelerators on irregular graph kernels (BFS, SpMV, PageRank) vs the
// serial-HLS baseline; lane/context/channel sweeps showing latency hiding
// through context switching.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/table.hpp"
#include "hls/openmp_front.hpp"
#include "hls/sparta.hpp"
#include "report.hpp"

namespace {

using namespace icsc;
using namespace icsc::hls;

core::CsrGraph bench_graph() { return core::make_rmat_graph(14, 8.0, 7); }

struct NamedWorkload {
  const char* name;       // paper table row
  const char* json_name;  // phase-sampling JSON line
  std::vector<SpartaTask> tasks;
};

std::vector<NamedWorkload> graph_workloads(const core::CsrGraph& graph) {
  std::vector<NamedWorkload> workloads;
  workloads.push_back({"SpMV", "spmv", make_spmv_tasks(graph)});
  workloads.push_back({"BFS expand", "bfs", make_bfs_tasks(graph)});
  workloads.push_back(
      {"PageRank push", "pagerank", make_pagerank_tasks(graph)});
  return workloads;
}

void BM_SpartaSimulation(benchmark::State& state) {
  const auto graph = bench_graph();
  const auto tasks = make_spmv_tasks(graph);
  SpartaConfig config;
  config.contexts_per_lane = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_sparta(tasks, config));
  }
}
BENCHMARK(BM_SpartaSimulation)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void print_tables() {
  const auto graph = bench_graph();
  std::printf(
      "\nworkload: RMAT scale-14 graph, %zu vertices, %zu edges (skewed "
      "degrees -> irregular gathers)\n",
      graph.num_vertices(), graph.num_edges());

  const auto workloads = graph_workloads(graph);

  std::printf("\n=== Sec. III: SPARTA vs serial HLS baseline ===\n");
  core::TextTable t({"kernel", "serial cycles", "SPARTA cycles", "speedup",
                     "lane util", "cache hit rate"});
  SpartaConfig sparta;  // 4 lanes x 4 contexts, 2 channels
  for (const auto& wl : workloads) {
    const auto serial =
        simulate_sparta(wl.tasks, serial_baseline_config(sparta));
    const auto parallel = simulate_sparta(wl.tasks, sparta);
    t.add_row({wl.name, std::to_string(serial.cycles),
               std::to_string(parallel.cycles),
               core::TextTable::num(static_cast<double>(serial.cycles) /
                                        static_cast<double>(parallel.cycles),
                                    2),
               core::TextTable::num(100.0 * parallel.lane_utilization, 1) + "%",
               core::TextTable::num(100.0 * parallel.hit_rate(), 1) + "%"});
  }
  std::printf("%s", t.to_string().c_str());

  std::printf(
      "\n=== Latency hiding: contexts per lane (SpMV, 4 lanes, 2 channels) "
      "===\n");
  core::TextTable ct({"contexts", "cycles", "speedup vs 1 ctx", "lane util"});
  std::uint64_t one_ctx_cycles = 0;
  for (const int contexts : {1, 2, 4, 8, 16}) {
    SpartaConfig config;
    config.contexts_per_lane = contexts;
    const auto stats = simulate_sparta(workloads[0].tasks, config);
    if (contexts == 1) one_ctx_cycles = stats.cycles;
    ct.add_row({std::to_string(contexts), std::to_string(stats.cycles),
                core::TextTable::num(static_cast<double>(one_ctx_cycles) /
                                         static_cast<double>(stats.cycles),
                                     2),
                core::TextTable::num(100.0 * stats.lane_utilization, 1) + "%"});
  }
  std::printf("%s", ct.to_string().c_str());

  std::printf(
      "\n=== NoC memory channels (SpMV, 8 lanes x 8 contexts, small cache -> "
      "miss traffic dominates) ===\n");
  core::TextTable nt({"channels", "cycles", "speedup vs 1 ch"});
  std::uint64_t one_ch_cycles = 0;
  for (const int channels : {1, 2, 4, 8}) {
    SpartaConfig config;
    config.lanes = 8;
    config.contexts_per_lane = 8;
    config.cache_lines = 64;  // stress the channels, as large graphs would
    config.mem_channels = channels;
    const auto stats = simulate_sparta(workloads[0].tasks, config);
    if (channels == 1) one_ch_cycles = stats.cycles;
    nt.add_row({std::to_string(channels), std::to_string(stats.cycles),
                core::TextTable::num(static_cast<double>(one_ch_cycles) /
                                         static_cast<double>(stats.cycles),
                                     2)});
  }
  std::printf("%s", nt.to_string().c_str());

  std::printf("\n=== Memory-side cache architecture (SpMV, hit rate / cycles) ===\n");
  core::TextTable cache_t({"lines", "direct-mapped", "4-way LRU", "8-way LRU"});
  for (const int lines : {64, 128, 256}) {
    std::string cells[3];
    int i = 0;
    for (const int ways : {1, 4, 8}) {
      SpartaConfig config;
      config.cache_lines = lines;
      config.cache_ways = ways;
      const auto stats = simulate_sparta(workloads[0].tasks, config);
      cells[i++] = core::TextTable::num(100.0 * stats.hit_rate(), 1) + "% / " +
                   core::TextTable::si(static_cast<double>(stats.cycles), 1);
    }
    cache_t.add_row({std::to_string(lines), cells[0], cells[1], cells[2]});
  }
  std::printf("%s", cache_t.to_string().c_str());

  std::printf("\n=== Lane-private scratchpads (hot vertices pinned) ===\n");
  core::TextTable sp({"scratchpad", "scratchpad hits", "cycles"});
  for (const std::int64_t bytes : {0ll, 4096ll, 16384ll}) {
    SpartaConfig config;
    config.private_scratchpad_bytes = bytes;
    const auto stats = simulate_sparta(workloads[0].tasks, config);
    sp.add_row({bytes == 0 ? "none" : core::TextTable::si(
                                          static_cast<double>(bytes), 0) + "B",
                std::to_string(stats.scratchpad_hits),
                std::to_string(stats.cycles)});
  }
  std::printf("%s", sp.to_string().c_str());

  std::printf("\n=== OpenMP lowering: schedule(static) vs schedule(dynamic) ===\n");
  core::TextTable ot({"directive", "cycles", "lane util"});
  for (const char* pragma_text :
       {"#pragma omp parallel for num_threads(8) schedule(static)",
        "#pragma omp parallel for num_threads(8) schedule(dynamic)"}) {
    const auto directive = parse_omp_directive(pragma_text);
    const auto config = lower_omp_to_sparta(directive, SpartaConfig{});
    const auto stats = simulate_sparta(workloads[0].tasks, config);
    ot.add_row({pragma_text, std::to_string(stats.cycles),
                core::TextTable::num(100.0 * stats.lane_utilization, 1) + "%"});
  }
  std::printf("%s", ot.to_string().c_str());
}

// --early-stop: SimPoint-style phase sampling vs the exhaustive
// isolated-interval oracle and the monolithic run. The CI is a coverage
// statement about the oracle; the monolithic gap (warm-cache coupling
// between intervals) is reported separately as reconstruction bias.
void print_phase_sampling() {
  std::printf("\n=== SimPoint-style phase sampling vs exhaustive oracle "
              "===\n");
  const SpartaConfig config;  // 4 lanes x 4 contexts, 2 channels
  PhaseSamplingConfig sampling;
  for (const auto& wl : graph_workloads(bench_graph())) {
    const auto sampled = simulate_sparta_sampled(wl.tasks, config, sampling);
    const auto oracle =
        sparta_isolated_reference(wl.tasks, config, sampling.interval_tasks);
    const auto monolithic = simulate_sparta(wl.tasks, config);
    const double oracle_cycles = static_cast<double>(oracle.cycles);
    const bool inside =
        std::fabs(sampled.cycles_estimate - oracle_cycles) <=
        sampled.cycles_half_width;
    const double bias =
        monolithic.cycles > 0
            ? sampled.cycles_estimate /
                      static_cast<double>(monolithic.cycles) -
                  1.0
            : 0.0;
    report::Json("sparta_phase_sampling")
        .str("kernel", wl.json_name)
        .num("intervals", sampled.intervals)
        .num("simulated", sampled.intervals_simulated)
        .num("sample_factor", sampled.sample_factor(), 2)
        .num("phases", sampled.phases_used)
        .num("estimate", sampled.cycles_estimate, 1)
        .num("half_width", sampled.cycles_half_width, 1)
        .num("oracle_cycles", oracle.cycles)
        .flag("oracle_inside_ci", inside)
        .num("monolithic_cycles", monolithic.cycles)
        .num("coupling_bias", bias, 4)
        .print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool early_stop = report::take_flag(argc, argv, "--early-stop");
  report::run_micro_timings(argc, argv);
  if (early_stop) {
    print_phase_sampling();
    return 0;
  }
  print_tables();
  return 0;
}
