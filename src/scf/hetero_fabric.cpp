#include "scf/hetero_fabric.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace icsc::scf {

CuConfig vector_cu_config() {
  CuConfig config;
  config.name = "vector CU (Spatz-style, GF12)";
  config.cores = 64;       // vector lanes for elementwise work
  config.tensor_rows = 2;  // vestigial FMA capability
  config.tensor_cols = 2;
  config.area_mm2 = 1.1;
  config.core_op_energy_pj = 1.2;  // lane datapath beats scalar cores
  config.static_power_mw = 14.0;
  return config;
}

void HeteroFabricConfig::validate() const {
  tensor_cu.validate();
  vector_cu.validate();
  const std::string where = "scf::HeteroFabricConfig";
  core::require_positive(where, "interconnect_bytes_per_cycle",
                         interconnect_bytes_per_cycle);
  core::require_at_least(where, "dispatch_cycles", dispatch_cycles, 0.0);
  core::require_at_least(where, "uncore_power_mw", uncore_power_mw, 0.0);
  core::require_at_least(where, "slow_cu_penalty", slow_cu_penalty, 1.0);
}

HeterogeneousFabric::HeterogeneousFabric(HeteroFabricConfig config)
    : config_(config),
      tensor_cu_(config.tensor_cu),
      vector_cu_(config.vector_cu) {
  config_.validate();
  health_.tensor = census_cus(config_.faults, config_.tensor_cus,
                              config_.forced_failed_tensor_cus,
                              /*site_base=*/0);
  health_.vector = census_cus(config_.faults, config_.vector_cus,
                              config_.forced_failed_vector_cus,
                              kVectorSiteBase);
  health_.operational =
      health_.tensor.active_cus + health_.vector.active_cus > 0;
}

FabricRunStats HeterogeneousFabric::run_kernel(const KernelCall& call) const {
  const char* where = "scf::HeterogeneousFabric::run_kernel";
  FabricRunStats stats;
  const bool gemm = call.kind == KernelCall::Kind::kGemm;
  // Route to the preferred pool; when it has no survivors and
  // repartitioning is on, fall back onto the other pool (slower, but the
  // kernel completes) instead of losing the kernel outright.
  const FabricHealth* pool = gemm ? &health_.tensor : &health_.vector;
  bool on_tensor_pool = gemm;
  if (config_.repartition_on_failure && pool->active_cus <= 0) {
    const FabricHealth* other = gemm ? &health_.vector : &health_.tensor;
    if (other->active_cus > 0) {
      pool = other;
      on_tensor_pool = !gemm;
    }
  }
  if (pool->active_cus <= 0) {
    stats.completed = false;
    stats.lost_kernels = 1;
    return stats;
  }
  const int cus = std::max(1, config_.repartition_on_failure
                                  ? pool->active_cus
                                  : pool->total_cus);
  const double pace = pool->slow_cus > 0 ? config_.slow_cu_penalty : 1.0;
  const ComputeUnit& unit = on_tensor_pool ? tensor_cu_ : vector_cu_;
  const CuConfig& unit_cfg =
      on_tensor_pool ? config_.tensor_cu : config_.vector_cu;
  if (gemm) {
    const std::size_t m_share =
        (call.m + static_cast<std::size_t>(cus) - 1) / cus;
    const auto cu_stats = unit.run_gemm(m_share, call.k, call.n);
    const double bytes =
        2.0 * (static_cast<double>(call.k) * call.n +
               static_cast<double>(call.m) * call.k +
               static_cast<double>(call.m) * call.n);
    const double transfer_cycles =
        bytes / config_.interconnect_bytes_per_cycle;
    stats.cycles = core::to_u64(
        where, "cycles",
        std::max(static_cast<double>(cu_stats.cycles) * pace,
                 transfer_cycles) +
            config_.dispatch_cycles);
    stats.flops = 2ull * call.m * call.k * call.n;
    stats.energy_pj = cu_stats.energy_pj * cus *
                      (static_cast<double>(call.m) /
                       (static_cast<double>(m_share) * cus));
    stats.energy_pj += bytes * 0.3;
  } else {
    const ElementCost cost = element_cost(call.kind);
    const std::size_t share =
        (call.m + static_cast<std::size_t>(cus) - 1) / cus;
    const auto cu_stats = unit.run_elementwise(share, cost.ops, cost.flops);
    stats.cycles = core::add_u64(
        where, "cycles",
        core::to_u64(where, "cycles",
                     static_cast<double>(cu_stats.cycles) * pace),
        core::to_u64(where, "dispatch_cycles", config_.dispatch_cycles));
    stats.flops = static_cast<std::uint64_t>(
        static_cast<double>(call.m) * cost.flops);
    stats.energy_pj = static_cast<double>(call.m) * cost.ops *
                      unit_cfg.core_op_energy_pj;
  }
  if (!config_.repartition_on_failure && pool->failed_cus > 0) {
    // Static partitioning: the shares mapped to dead CUs are lost.
    const double live_frac = static_cast<double>(pool->active_cus) /
                             static_cast<double>(pool->total_cus);
    stats.completed = false;
    stats.lost_kernels = 1;
    stats.flops = static_cast<std::uint64_t>(
        static_cast<double>(stats.flops) * live_frac);
    stats.energy_pj *= live_frac;
  }
  return stats;
}

FabricRunStats HeterogeneousFabric::run_trace(
    const std::vector<KernelCall>& trace) const {
  FabricRunStats total;
  for (const auto& call : trace) {
    const auto stats = run_kernel(call);
    total.cycles = core::add_u64("scf::HeterogeneousFabric::run_trace",
                                 "cycles", total.cycles, stats.cycles);
    total.flops += stats.flops;
    total.energy_pj += stats.energy_pj;
    total.completed = total.completed && stats.completed;
    total.lost_kernels += stats.lost_kernels;
  }
  // Static power of the live CUs only (dead CUs are powered off).
  const double seconds = total.seconds(config_.tensor_cu.fclk_mhz);
  total.energy_pj +=
      (config_.tensor_cu.static_power_mw * health_.tensor.active_cus +
       config_.vector_cu.static_power_mw * health_.vector.active_cus +
       config_.uncore_power_mw) *
      1e-3 * seconds * 1e12;
  return total;
}

double HeterogeneousFabric::average_power_w(const FabricRunStats& stats) const {
  const double seconds = stats.seconds(config_.tensor_cu.fclk_mhz);
  return seconds > 0 ? stats.energy_pj * 1e-12 / seconds : 0.0;
}

double HeterogeneousFabric::tflops_per_watt(const FabricRunStats& stats) const {
  const double watts = average_power_w(stats);
  const double seconds = stats.seconds(config_.tensor_cu.fclk_mhz);
  if (watts <= 0 || seconds <= 0) return 0.0;
  return static_cast<double>(stats.flops) / seconds * 1e-12 / watts;
}

std::vector<MixPoint> sweep_cu_mix(const TransformerConfig& model,
                                   int total_cus) {
  const auto trace = kernel_trace(model);

  std::vector<MixPoint> points;
  for (int vector_cus = 0; vector_cus <= total_cus / 2;
       vector_cus += (vector_cus < 4 ? 1 : 2)) {
    HeteroFabricConfig config;
    config.tensor_cus = total_cus - vector_cus;
    config.vector_cus = std::max(1, vector_cus);
    if (vector_cus == 0) {
      // Homogeneous reference: elementwise runs on the tensor CUs' cores.
      config.vector_cu = config.tensor_cu;
      config.vector_cus = config.tensor_cus;
      config.tensor_cus = total_cus;
    }
    const HeterogeneousFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    MixPoint point;
    point.tensor_cus = vector_cus == 0 ? total_cus : total_cus - vector_cus;
    point.vector_cus = vector_cus;
    point.cycles = static_cast<double>(stats.cycles);
    point.gflops = stats.gflops(config.tensor_cu.fclk_mhz);
    point.tflops_per_watt = fabric.tflops_per_watt(stats);
    points.push_back(point);
  }
  return points;
}

}  // namespace icsc::scf
