// Transformer inference on the Scalable Compute Fabric (paper Sec. VII).
//
// Runs a bf16 transformer encoder block numerically (validating it against
// the fp32 reference), then maps its kernel trace onto the Compute Unit
// and onto SCF configurations from 1 to 64 CUs, reporting the KPIs the
// paper quotes (150 GFLOPS, 1.5 TFLOPS/W per CU) and the scaling study.
//
//   build/examples/transformer_on_scf
#include <cstdio>

#include "core/table.hpp"
#include "scf/fabric.hpp"

int main() {
  using namespace icsc;
  using namespace icsc::scf;

  TransformerConfig model;
  model.seq_len = 128;
  model.d_model = 256;
  model.heads = 4;
  model.d_ff = 1024;

  // Numerical check: bf16 vs fp32.
  auto fp32_model = model;
  fp32_model.use_bf16 = false;
  const TransformerBlock bf16_block(model);
  const TransformerBlock fp32_block(fp32_model);
  const auto x = make_activations(model, 3);
  const auto y_bf = bf16_block.forward(x);
  const auto y_fp = fp32_block.forward(x);
  std::printf("transformer block %zux%zu (%zu heads, d_ff %zu): %.2f MFLOP\n",
              model.seq_len, model.d_model, model.heads, model.d_ff,
              bf16_block.flops() * 1e-6);
  std::printf("bf16 vs fp32 max |diff| on normalised activations: %.4f\n\n",
              max_abs_diff(y_bf, y_fp));

  // Kernel trace onto one CU.
  const auto trace = kernel_trace(model);
  const ComputeUnit cu;
  CuRunStats total;
  for (const auto& call : trace) {
    if (call.kind == KernelCall::Kind::kGemm) {
      total = ComputeUnit::combine(total, cu.run_gemm(call.m, call.k, call.n));
    } else {
      const ElementCost cost = element_cost(call.kind);
      total = ComputeUnit::combine(
          total, cu.run_elementwise(call.m, cost.ops, cost.flops));
    }
  }
  std::printf("on one CU (%s): %.2f ms/block, %.1f GFLOPS sustained, "
              "%.2f TFLOPS/W (paper: up to 150 GFLOPS, 1.5 TFLOPS/W)\n\n",
              cu.config().name.c_str(),
              total.seconds(cu.config().fclk_mhz) * 1e3,
              total.gflops(cu.config().fclk_mhz), cu.tflops_per_watt(total));

  // Fabric scaling.
  std::printf("=== SCF scaling (Fig. 8 template) ===\n");
  core::TextTable t({"CUs", "blocks/s", "speedup", "efficiency", "power (W)"});
  double single_rate = 0.0;
  for (const int cus : {1, 2, 4, 8, 16, 32, 64}) {
    FabricConfig config;
    config.num_cus = cus;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    const double rate = 1.0 / stats.seconds(config.cu.fclk_mhz);
    if (cus == 1) single_rate = rate;
    t.add_row({std::to_string(cus), core::TextTable::num(rate, 0),
               core::TextTable::num(rate / single_rate, 2),
               core::TextTable::num(100.0 * rate / single_rate / cus, 1) + "%",
               core::TextTable::num(fabric.average_power_w(stats), 2)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nsmall blocks stop scaling once dispatch + interconnect "
              "dominate -- the motivation for hierarchical interconnects "
              "(FlooNoC [47]) in the scaled-up SCF.\n");
  return 0;
}
