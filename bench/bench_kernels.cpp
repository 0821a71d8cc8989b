// Per-PR hot-kernel scoreboard (PR-6 edition): times every optimized
// single-thread kernel against the retained reference path it replaced,
// verifies the outputs are bit-identical, and writes the machine-readable
// BENCH_PR6.json scoreboard (repo root in the committed run; CI regenerates
// it per push). The JSON records the active SIMD ISA and the detected CPU
// features so numbers from different machines are comparable.
//
// All measurements run serially (core::ScopedSerial) so the numbers isolate
// the single-thread micro-kernel work from thread-pool scaling, which
// bench_hls_dse / bench_fig6_dna already cover. Usage:
//
//   bench_kernels [--out=PATH] [--check=RATIO] [--reps=N]
//                 [--baseline=PATH] [--geomean=G]
//
// --check fails the process (exit 1) if any kernel's new path is slower
// than RATIO times its old path -- the CI perf-smoke gate. --baseline
// loads a previous scoreboard JSON and reports the per-kernel and geomean
// speedup of this run's new_ms over the baseline's new_ms for the
// SIMD-vectorized kernels; --geomean fails the process if that geomean
// falls short of G (only meaningful together with --baseline).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "approx/approx_conv.hpp"
#include "approx/conv.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "core/table.hpp"
#include "core/trace.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hls/dse.hpp"
#include "report.hpp"

namespace {

using namespace icsc;

using report::best_of_ms;
// The benches must not let the optimizer delete the timed call.
using benchmark::DoNotOptimize;

struct KernelRow {
  std::string name;
  double old_ms = 0.0;
  double new_ms = 0.0;
  bool identical = false;
  // Optional work counters, printed after the common fields.
  report::Json counters;
};

double speedup(const KernelRow& row) {
  return row.new_ms > 0.0 ? row.old_ms / row.new_ms : 0.0;
}

// --- HLS DSE: uncached vs memoized exhaustive sweep --------------------

KernelRow bench_dse(int reps) {
  // A budget grid that extends well past the kernel's occupancy, as real
  // sweeps do: most points collapse onto shared effective-budget slots.
  const auto kernel = hls::make_dot_kernel(16);
  hls::DseConfig uncached;
  uncached.iterations = 16384;
  uncached.space.unroll_factors = {1, 2, 4, 8};
  uncached.space.alu_counts = {1, 2, 4, 8, 16, 32};
  uncached.space.mul_counts = {1, 2, 4, 8, 16, 32};
  uncached.space.mem_port_counts = {1, 2, 4};  // 4*6*6*3 = 432 points
  uncached.memoize = false;
  hls::DseConfig cached = uncached;
  cached.memoize = true;

  // Counter-verified schedule_list reduction (the PR's acceptance gate).
  core::trace::set_enabled(true);
  core::trace::reset();
  const auto old_result = hls::dse_exhaustive(kernel, uncached);
  const std::uint64_t old_calls = core::trace::counters()["dse/schedule_calls"];
  core::trace::reset();
  const auto new_result = hls::dse_exhaustive(kernel, cached);
  const std::uint64_t new_calls = core::trace::counters()["dse/schedule_calls"];
  core::trace::set_enabled(false);
  core::trace::reset();

  KernelRow row;
  row.name = "dse_exhaustive";
  row.identical = hls::dse_results_identical(old_result, new_result);
  row.old_ms = best_of_ms(reps, [&] {
    DoNotOptimize(hls::dse_exhaustive(kernel, uncached));
  });
  row.new_ms = best_of_ms(reps, [&] {
    DoNotOptimize(hls::dse_exhaustive(kernel, cached));
  });
  row.counters.num("schedule_calls_old", old_calls)
      .num("schedule_calls_new", new_calls)
      .num("cache_hits", new_result.cache_hits)
      .num("cache_misses", new_result.cache_misses);
  if (new_calls * 3 > old_calls) {
    std::fprintf(stderr,
                 "FAIL: memoized exhaustive DSE ran %llu schedule_list "
                 "pipelines vs %llu uncached (< 3x reduction)\n",
                 static_cast<unsigned long long>(new_calls),
                 static_cast<unsigned long long>(old_calls));
    row.identical = false;  // fail the gate through the identical flag
  }
  return row;
}

// --- Convolution engines ----------------------------------------------

approx::FeatureMap random_map(std::size_t c, std::size_t h, std::size_t w,
                              std::uint64_t seed) {
  core::Rng rng(seed);
  approx::FeatureMap map({c, h, w});
  for (auto& v : map.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return map;
}

approx::ConvLayer random_layer(std::size_t cout, std::size_t cin,
                               std::size_t k, std::uint64_t seed) {
  core::Rng rng(seed);
  approx::ConvLayer layer;
  layer.weights = core::TensorF({cout, cin, k, k});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias.assign(cout, 0.05F);
  layer.relu = true;
  return layer;
}

KernelRow bench_conv(int reps) {
  const auto layer = random_layer(16, 8, 3, 11);
  const auto input = random_map(8, 56, 56, 12);
  const approx::QuantConfig quant;  // Q7.8 activations, the Table I config
  KernelRow row;
  row.name = "conv3x3_fixed_point";
  const auto ref = layer.apply_reference(input, quant);
  const auto fast = layer.apply(input, quant);
  row.identical = ref == fast;
  row.old_ms =
      best_of_ms(reps, [&] { DoNotOptimize(layer.apply_reference(input, quant)); });
  row.new_ms = best_of_ms(reps, [&] { DoNotOptimize(layer.apply(input, quant)); });
  return row;
}

KernelRow bench_approx_conv(int reps) {
  const auto layer = random_layer(12, 6, 3, 21);
  const auto input = random_map(6, 48, 48, 22);
  const approx::QuantConfig quant;
  approx::ApproxArithConfig arith;
  arith.multiplier = approx::ApproxArithConfig::Multiplier::kTruncated;
  arith.adder = approx::ApproxArithConfig::Adder::kLoa;  // non-associative
  KernelRow row;
  row.name = "approx_conv_truncated_loa";
  const auto ref = approx::apply_approx_reference(layer, input, quant, arith);
  const auto fast = approx::apply_approx(layer, input, quant, arith);
  row.identical = ref == fast;
  row.old_ms = best_of_ms(reps, [&] {
    DoNotOptimize(approx::apply_approx_reference(layer, input, quant, arith));
  });
  row.new_ms = best_of_ms(reps, [&] {
    DoNotOptimize(approx::apply_approx(layer, input, quant, arith));
  });
  return row;
}

KernelRow bench_htconv(int reps) {
  approx::TconvLayer layer;
  core::Rng rng(31);
  layer.weights = core::TensorF({8, 4, 4});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias = 0.02F;
  const auto input = random_map(8, 48, 48, 32);
  const auto fovea = approx::FovealRegion::centered(48, 48, 0.25);
  const approx::QuantConfig quant;
  KernelRow row;
  row.name = "htconv_foveated";
  const auto ref = layer.apply_foveated_reference(input, fovea, quant);
  const auto fast = layer.apply_foveated(input, fovea, quant);
  row.identical = ref.tensor() == fast.tensor();
  row.old_ms = best_of_ms(reps, [&] {
    DoNotOptimize(layer.apply_foveated_reference(input, fovea, quant));
  });
  row.new_ms = best_of_ms(reps, [&] {
    DoNotOptimize(layer.apply_foveated(input, fovea, quant));
  });
  return row;
}

// --- Exact Q16 integer path --------------------------------------------
//
// The rows above feed off-grid inputs (uniform in [-1, 1)), so their new
// path is the f64 fallback. These twins put the inputs through
// quantize_map and the biases on the 2^-20 accumulator grid, so the new
// path is the int16 MAC engine; each also checks, through the
// conv.int16_layers trace counter, that the engine really ran.

/// Layers that took the integer path while `fn` ran.
std::uint64_t int16_layers(const std::function<void()>& fn) {
  core::trace::set_enabled(true);
  core::trace::reset();
  fn();
  const std::uint64_t layers = core::trace::counters()["conv.int16_layers"];
  core::trace::set_enabled(false);
  core::trace::reset();
  return layers;
}

void require_int16_path(KernelRow& row, std::uint64_t layers) {
  if (layers != 1) {
    std::fprintf(stderr, "FAIL: %s ran %llu layers on the integer path, not 1\n",
                 row.name.c_str(), static_cast<unsigned long long>(layers));
    row.identical = false;  // fail the gate through the identical flag
  }
}

KernelRow bench_conv_q16(int reps) {
  auto layer = random_layer(16, 8, 3, 11);
  layer.bias.assign(16, 0.046875F);  // 3/64, on the accumulator grid
  auto input = random_map(8, 56, 56, 12);
  const approx::QuantConfig quant;
  approx::quantize_map(input, quant);
  KernelRow row;
  row.name = "conv3x3_q16";
  const auto ref = layer.apply_reference(input, quant);
  approx::FeatureMap fast;
  const std::uint64_t layers =
      int16_layers([&] { fast = layer.apply(input, quant); });
  row.identical = ref == fast;
  require_int16_path(row, layers);
  row.old_ms =
      best_of_ms(reps, [&] { DoNotOptimize(layer.apply_reference(input, quant)); });
  row.new_ms = best_of_ms(reps, [&] { DoNotOptimize(layer.apply(input, quant)); });
  return row;
}

KernelRow bench_htconv_q16(int reps) {
  approx::TconvLayer layer;
  core::Rng rng(31);
  layer.weights = core::TensorF({8, 4, 4});
  for (auto& v : layer.weights.data()) {
    v = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  layer.bias = 0.02F;  // added after the exact sum: any value
  auto input = random_map(8, 48, 48, 32);
  const approx::QuantConfig quant;
  approx::quantize_map(input, quant);
  const auto fovea = approx::FovealRegion::centered(48, 48, 0.25);
  KernelRow row;
  row.name = "htconv_q16";
  const auto ref = layer.apply_foveated_reference(input, fovea, quant);
  core::Image fast;
  const std::uint64_t layers = int16_layers(
      [&] { fast = layer.apply_foveated(input, fovea, quant); });
  row.identical = ref.tensor() == fast.tensor();
  require_int16_path(row, layers);
  row.old_ms = best_of_ms(reps, [&] {
    DoNotOptimize(layer.apply_foveated_reference(input, fovea, quant));
  });
  row.new_ms = best_of_ms(reps, [&] {
    DoNotOptimize(layer.apply_foveated(input, fovea, quant));
  });
  return row;
}

// --- DNA read clustering ----------------------------------------------

bool clusters_identical(const hetero::dna::ClusterResult& a,
                        const hetero::dna::ClusterResult& b) {
  if (a.pair_comparisons != b.pair_comparisons ||
      a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].read_indices != b.clusters[c].read_indices) return false;
  }
  return true;
}

KernelRow bench_dna(int reps) {
  namespace dna = hetero::dna;
  core::Rng rng(41);
  std::vector<dna::Strand> strands(96);
  for (auto& s : strands) {
    s.resize(120);
    for (auto& b : s) b = static_cast<dna::Base>(rng.below(4));
  }
  dna::ChannelParams channel;
  channel.mean_coverage = 6.0;
  channel.seed = 42;
  const auto reads = dna::simulate_channel(strands, channel);

  const dna::ClusterParams params;

  KernelRow row;
  row.name = "dna_cluster_reads";
  const auto old_result = dna::cluster_reads_reference(reads.reads, params);
  const auto new_result = dna::cluster_reads(reads.reads, params);
  row.identical = clusters_identical(old_result, new_result);
  row.old_ms = best_of_ms(reps, [&] {
    DoNotOptimize(dna::cluster_reads_reference(reads.reads, params));
  });
  row.new_ms = best_of_ms(reps, [&] {
    DoNotOptimize(dna::cluster_reads(reads.reads, params));
  });
  row.counters.num("reads", reads.reads.size())
      .num("pair_comparisons", new_result.pair_comparisons)
      .num("screened_out", new_result.screened_out);
  return row;
}

// --- Counter-based read-noise normals -----------------------------------
//
// The IMC crossbar reads draw their noise from core::simd::normal_pairs;
// before, each read drew core::Rng::normal. Both sides fill the same
// number of normals; identical checks the active ISA against the scalar
// oracle.

KernelRow bench_normal_pairs(int reps) {
  constexpr std::size_t kPairs = std::size_t{1} << 16;
  KernelRow row;
  row.name = "normal_pairs";
  std::vector<double> z0(kPairs), z1(kPairs), w0(kPairs), w1(kPairs);
  const core::simd::Isa active = core::simd::active_isa();
  core::simd::set_active_isa(core::simd::Isa::kScalar);
  core::simd::normal_pairs(0x5EED, 0, kPairs, w0.data(), w1.data());
  core::simd::set_active_isa(active);
  core::simd::normal_pairs(0x5EED, 0, kPairs, z0.data(), z1.data());
  row.identical = std::memcmp(z0.data(), w0.data(), kPairs * 8) == 0 &&
                  std::memcmp(z1.data(), w1.data(), kPairs * 8) == 0;
  core::Rng rng(0x5EED);
  row.old_ms = best_of_ms(reps, [&] {
    for (std::size_t j = 0; j < kPairs; ++j) {
      z0[j] = rng.normal();
      z1[j] = rng.normal();
    }
    DoNotOptimize(z0);
  });
  std::uint64_t key = 0;
  row.new_ms = best_of_ms(reps, [&] {
    core::simd::normal_pairs(++key, 0, kPairs, z0.data(), z1.data());
    DoNotOptimize(z0);
  });
  const double per_normal = 1e6 / (2.0 * kPairs);  // ms -> ns per normal
  row.counters.num("old_ns_per_normal", row.old_ms * per_normal, 2)
      .num("new_ns_per_normal", row.new_ms * per_normal, 2);
  return row;
}

// --- Baseline comparison ----------------------------------------------

/// Kernels whose new path runs through the runtime-dispatched SIMD layer;
/// the --geomean gate covers exactly these. The two q16 rows and
/// normal_pairs stay out: the committed BENCH_PR5.json baseline has no
/// entry for them, and a faster new row must not hide a slower old one in
/// the geomean.
const char* const kVectorizedKernels[] = {
    "conv3x3_fixed_point",
    "approx_conv_truncated_loa",
    "htconv_foveated",
    "dna_cluster_reads",
};

std::string row_json(const KernelRow& row) {
  return "    " + report::Json()
                      .str("kernel", row.name)
                      .num("old_ms", row.old_ms, 3)
                      .num("new_ms", row.new_ms, 3)
                      .num("speedup", speedup(row), 3)
                      .flag("identical", row.identical)
                      .fields(row.counters)
                      .text();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PR6.json";
  std::string baseline_path;
  double check_ratio = 0.0;   // 0 disables the gate
  double geomean_gate = 0.0;  // 0 reports without gating
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--check=", 8) == 0) {
      check_ratio = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = std::max(1, std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strncmp(arg, "--geomean=", 10) == 0) {
      geomean_gate = std::atof(arg + 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return 2;
    }
  }

  // Serial so the scoreboard isolates single-thread kernel work.
  core::ScopedSerial serial;
  const std::string isa = core::simd::isa_name(core::simd::active_isa());
  const std::string features = core::simd::cpu_features();
  std::vector<KernelRow> rows;
  rows.push_back(bench_dse(reps));
  rows.push_back(bench_conv(reps));
  rows.push_back(bench_approx_conv(reps));
  rows.push_back(bench_htconv(reps));
  rows.push_back(bench_conv_q16(reps));
  rows.push_back(bench_htconv_q16(reps));
  rows.push_back(bench_dna(reps));
  rows.push_back(bench_normal_pairs(reps));

  core::TextTable table(
      {"kernel", "old (ms)", "new (ms)", "speedup", "bit-identical"});
  for (const auto& row : rows) {
    table.add_row({row.name, core::TextTable::num(row.old_ms, 2),
                   core::TextTable::num(row.new_ms, 2),
                   core::TextTable::num(speedup(row), 2) + "x",
                   row.identical ? "yes" : "NO"});
  }
  std::printf(
      "=== PR-6 hot-kernel scoreboard (serial, best of %d, isa=%s) ===\n%s",
      reps, isa.c_str(), table.to_string().c_str());

  std::string json = "{\n  \"bench\": \"pr6_hot_kernels\",\n  \"reps\": " +
                     core::json_num(std::int64_t{reps}) + ",\n  \"isa\": \"" +
                     isa + "\",\n  \"cpu_features\": \"" + features +
                     "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += row_json(rows[i]) + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  std::ofstream out(out_path);
  out << json;
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  int failures = 0;
  for (const auto& row : rows) {
    if (!row.identical) {
      std::fprintf(stderr, "FAIL: %s outputs diverged from the reference\n",
                   row.name.c_str());
      ++failures;
    }
    if (check_ratio > 0.0 && row.new_ms > check_ratio * row.old_ms) {
      std::fprintf(stderr,
                   "FAIL: %s new path %.3f ms vs old %.3f ms exceeds the "
                   "%.2fx regression budget\n",
                   row.name.c_str(), row.new_ms, row.old_ms, check_ratio);
      ++failures;
    }
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ++failures;
    } else {
      const std::string baseline((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
      double log_sum = 0.0;
      int counted = 0;
      for (const char* name : kVectorizedKernels) {
        const auto base_ms = report::scoreboard_new_ms(baseline, name);
        double cur_ms = 0.0;
        for (const auto& row : rows) {
          if (row.name == name) cur_ms = row.new_ms;
        }
        if (!base_ms || cur_ms <= 0.0) {
          std::fprintf(stderr,
                       "FAIL: kernel %s has no valid new_ms in the baseline "
                       "or run\n",
                       name);
          ++failures;
          continue;
        }
        const double ratio = *base_ms / cur_ms;
        std::printf("vs baseline: %-28s %6.3f ms -> %6.3f ms  (%.2fx)\n", name,
                    *base_ms, cur_ms, ratio);
        log_sum += std::log(ratio);
        ++counted;
      }
      if (counted > 0) {
        const double geomean = std::exp(log_sum / counted);
        std::printf("vs baseline: geomean speedup over %d vectorized kernels: "
                    "%.2fx\n",
                    counted, geomean);
        if (geomean_gate > 0.0 && geomean < geomean_gate) {
          std::fprintf(stderr,
                       "FAIL: geomean speedup %.2fx below the %.2fx gate\n",
                       geomean, geomean_gate);
          ++failures;
        }
      }
    }
  }
  return failures == 0 ? 0 : 1;
}
