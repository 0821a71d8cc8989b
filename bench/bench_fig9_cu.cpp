// Reproduces Fig. 9 / Sec. VII CU claims: "the CU achieves up to 150 GFLOPS
// and 1.5 TFLOPS/W at 460 MHz, 0.55 V" with bf16 Transformer blocks, in
// ~1.21 mm^2 of GF12. The bench runs bf16 transformer-block kernels through
// the CU timing/energy model across operating points and GEMM shapes, and
// times the software bf16 transformer kernels themselves. It also swaps the
// Sec. V aggressive softmax approximation ([18]) into the block's attention
// and reports how far the block output moves.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "approx/softmax.hpp"
#include "core/table.hpp"
#include "scf/compute_unit.hpp"
#include "scf/model.hpp"
#include "scf/transformer.hpp"

namespace {

using namespace icsc;
using namespace icsc::scf;

void BM_Bf16TransformerBlock(benchmark::State& state) {
  TransformerConfig cfg;
  cfg.seq_len = 64;
  cfg.d_model = 128;
  cfg.d_ff = 512;
  const TransformerBlock block(cfg);
  const auto x = make_activations(cfg, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.forward(x));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(block.flops()));
}
BENCHMARK(BM_Bf16TransformerBlock)->Unit(benchmark::kMillisecond);

void BM_CuGemmModel(benchmark::State& state) {
  const ComputeUnit cu;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cu.run_gemm(n, n, n));
  }
}
BENCHMARK(BM_CuGemmModel)->Arg(128)->Arg(768);

void print_tables() {
  std::printf("\n=== Sec. VII / Fig. 9: Compute Unit KPIs (model vs paper) ===\n");
  const ComputeUnit cu;
  const auto big_gemm = cu.run_gemm(768, 768, 768);
  core::TextTable t({"metric", "paper", "model"});
  t.add_row({"technology", "GF12", "GF12 (modeled)"});
  t.add_row({"area (mm^2)", "~1.21", core::TextTable::num(cu.config().area_mm2, 2)});
  t.add_row({"operating point", "460 MHz, 0.55 V",
             core::TextTable::num(cu.config().fclk_mhz, 0) + " MHz, " +
                 core::TextTable::num(cu.config().vdd, 2) + " V"});
  t.add_row({"GFLOPS (bf16 GEMM 768^3)", "up to 150",
             core::TextTable::num(big_gemm.gflops(cu.config().fclk_mhz), 1)});
  t.add_row({"TFLOPS/W", "1.5",
             core::TextTable::num(cu.tflops_per_watt(big_gemm), 2)});
  t.add_row({"FPU/grid utilization", "-",
             core::TextTable::num(100.0 * big_gemm.utilization, 1) + "%"});
  std::printf("%s", t.to_string().c_str());

  std::printf("\n=== Transformer-block kernels on the CU ===\n");
  TransformerConfig model;  // 128 x 256, 4 heads, d_ff 1024
  const TransformerBlock block(model);
  const auto activations = make_activations(model, 1);
  std::vector<KernelCall> trace;
  const auto exact_out = block.forward(activations, &trace);
  core::TextTable kt({"kernel", "shape (m,k,n / elems)", "cycles",
                      "GFLOPS", "energy (uJ)"});
  CuRunStats total;
  for (const auto& call : trace) {
    CuRunStats stats;
    std::string shape;
    if (call.kind == KernelCall::Kind::kGemm) {
      stats = cu.run_gemm(call.m, call.k, call.n);
      shape = std::to_string(call.m) + "x" + std::to_string(call.k) + "x" +
              std::to_string(call.n);
    } else {
      const ElementCost cost = element_cost(call.kind);
      stats = cu.run_elementwise(call.m, cost.ops, cost.flops);
      shape = std::to_string(call.m);
    }
    total = ComputeUnit::combine(total, stats);
    kt.add_row({call.label, shape, std::to_string(stats.cycles),
                core::TextTable::num(stats.gflops(cu.config().fclk_mhz), 1),
                core::TextTable::num(stats.energy_pj * 1e-6, 2)});
  }
  std::printf("%s", kt.to_string().c_str());
  std::printf(
      "block total: %.2f ms equivalent cycles %.0fk, %.1f GFLOPS sustained, "
      "%.2f TFLOPS/W\n",
      total.seconds(cu.config().fclk_mhz) * 1e3,
      static_cast<double>(total.cycles) / 1e3,
      total.gflops(cu.config().fclk_mhz), cu.tflops_per_watt(total));

  std::printf("\n=== Sec. V approximate softmax ([18]) in the block's attention ===\n");
  {
    // Same config, hence the same seeded weights; only the attention
    // softmax changes. The exact-softmax output above is the reference.
    struct Variant {
      const char* name;
      const char* normalisation;
      TransformerConfig::SoftmaxFn fn;
    };
    const Variant variants[] = {
        {"softmax_approx_exact_norm", "exact divide",
         approx::softmax_approx_exact_norm},
        {"softmax_approx", "power-of-two shift",
         [](std::span<const float> logits) {
           return approx::softmax_approx(logits);
         }}};
    core::TextTable at({"attention softmax", "normalisation",
                        "block max abs diff vs exact"});
    for (const auto& variant : variants) {
      TransformerConfig approx_model = model;
      approx_model.softmax_override = variant.fn;
      const TransformerBlock approx_block(approx_model);
      const float diff =
          max_abs_diff(approx_block.forward(activations), exact_out);
      at.add_row({variant.name, variant.normalisation,
                  core::TextTable::num(diff, 3)});
    }
    std::printf("%s", at.to_string().c_str());
    const auto sweep =
        approx::sweep_softmax(static_cast<int>(model.seq_len), 1000, 8.0, 1);
    std::printf(
        "sweep_softmax (width %zu, 1000 rows, logits in [-8, 8], exact "
        "divide): mean max-abs error %.4f, worst %.4f, argmax preserved "
        "%.1f%%\n",
        model.seq_len, sweep.mean_max_abs_error, sweep.worst_max_abs_error,
        100.0 * sweep.argmax_preservation_rate);
  }

  std::printf("\n=== Model-level inference on the SCF (12-layer encoder) ===\n");
  {
    TransformerConfig base;
    base.seq_len = 128;
    base.d_model = 256;
    base.heads = 4;
    base.d_ff = 1024;
    const TransformerModel bert_ish(base, 12);
    core::TextTable mt({"fabric", "sequences/s", "GFLOPS", "power (W)",
                        "mJ/sequence"});
    for (const int cus : {1, 4, 16}) {
      FabricConfig fabric;
      fabric.num_cus = cus;
      const auto est = estimate_model_inference(bert_ish, fabric);
      mt.add_row({"SCF-" + std::to_string(cus),
                  core::TextTable::num(est.sequences_per_second, 1),
                  core::TextTable::num(est.gflops_sustained, 0),
                  core::TextTable::num(est.power_w, 2),
                  core::TextTable::num(est.joules_per_sequence * 1e3, 2)});
    }
    std::printf("%s", mt.to_string().c_str());
  }

  std::printf("\n=== Operating-point sweep (GEMM 768^3) ===\n");
  core::TextTable ot({"fclk (MHz)", "Vdd (V)", "GFLOPS", "power (mW)",
                      "TFLOPS/W"});
  for (const auto& [f, v] : {std::pair{230.0, 0.50}, std::pair{460.0, 0.55},
                             std::pair{700.0, 0.65}, std::pair{900.0, 0.80}}) {
    const ComputeUnit point{at_operating_point(CuConfig{}, f, v)};
    const auto stats = point.run_gemm(768, 768, 768);
    ot.add_row({core::TextTable::num(f, 0), core::TextTable::num(v, 2),
                core::TextTable::num(stats.gflops(f), 1),
                core::TextTable::num(point.average_power_w(stats) * 1e3, 1),
                core::TextTable::num(point.tflops_per_watt(stats), 2)});
  }
  std::printf("%s", ot.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
