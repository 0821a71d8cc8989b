#include "scf/fabric.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/trace.hpp"

namespace icsc::scf {

CuConfig vector_cu_config() noexcept {
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

void FabricConfig::validate() const {
  cu.validate();
  vector_cu.validate();
  const std::string where = "scf::FabricConfig";
  core::require_at_least(where, "num_cus", num_cus, 1);
  core::require_at_least(where, "vector_cus", vector_cus, 0);
  core::require_positive(where, "interconnect_bytes_per_cycle",
                         interconnect_bytes_per_cycle);
  core::require_at_least(where, "dispatch_cycles", dispatch_cycles, 0.0);
  core::require_at_least(where, "uncore_power_mw", uncore_power_mw, 0.0);
  core::require_at_least(where, "slow_cu_penalty", slow_cu_penalty, 1.0);
  faults.validate();
}

namespace {

/// Deterministic census of `total` CUs occupying fault sites
/// site_base .. site_base+total-1; the first `forced` CUs fail
/// unconditionally.
FabricHealth census_cus(const core::FaultConfig& faults, int total, int forced,
                        std::uint64_t site_base) {
  FabricHealth health;
  health.total_cus = total;
  const core::FaultInjector injector(faults, /*stream=*/0x5CF);
  const int force = std::clamp(forced, 0, total);
  for (int id = 0; id < total; ++id) {
    bool failed = id < force;
    bool slow = false;
    if (!failed && injector.enabled()) {
      switch (injector.at(site_base + static_cast<std::uint64_t>(id))) {
        case core::FaultKind::kDropout:
        case core::FaultKind::kStuckAtLow:
        case core::FaultKind::kStuckAtHigh:
          failed = true;  // CU is dead: powered off, excluded from work
          break;
        case core::FaultKind::kDelay:
        case core::FaultKind::kDrift:
          slow = true;  // CU is alive but paces every barrier
          break;
        default:
          break;
      }
    }
    if (failed) ++health.failed_cus;
    if (slow) ++health.slow_cus;
  }
  health.active_cus = total - health.failed_cus;
  return health;
}

/// Returns `config` once it validates, so no pool is built from a bad one.
const FabricConfig& validated(const FabricConfig& config) {
  config.validate();
  return config;
}

}  // namespace

ScalableComputeFabric::ScalableComputeFabric(const FabricConfig& config)
    : config_(validated(config)),
      tensor_{ComputeUnit(config_.cu),
              census_cus(config_.faults, config_.num_cus,
                         config_.forced_failed_cus, /*site_base=*/0)},
      vector_{ComputeUnit(config_.vector_cu),
              census_cus(config_.faults, config_.vector_cus,
                         config_.forced_failed_vector_cus, kVectorSiteBase)} {}

FabricRunStats ScalableComputeFabric::run_kernel(const KernelCall& call) const {
  const char* where = "scf::ScalableComputeFabric::run_kernel";
  FabricRunStats stats;
  const bool gemm = call.kind == KernelCall::Kind::kGemm;
  const Pool* pool =
      gemm || vector_.health.total_cus == 0 ? &tensor_ : &vector_;
  // A pool with no survivors hands its kernels to the other pool (slower,
  // but the kernel completes) when repartitioning is on.
  const Pool* other = pool == &tensor_ ? &vector_ : &tensor_;
  if (config_.repartition_on_failure && pool->health.active_cus <= 0 &&
      other->health.active_cus > 0) {
    pool = other;
  }
  const FabricHealth& health = pool->health;
  const int total = health.total_cus;
  const int live = health.active_cus;
  if (live <= 0) {
    // Nothing can execute: the kernel is lost wholesale.
    stats.completed = false;
    stats.lost_kernels = 1;
    return stats;
  }
  // Repartitioning splits the kernel over the survivors; otherwise the
  // original partition stands and dead CUs' shares are silently dropped.
  const int cus = config_.repartition_on_failure ? live : total;
  // Bulk-synchronous kernels wait on the slowest participant.
  const double pace = health.slow_cus > 0 ? config_.slow_cu_penalty : 1.0;
  const double live_frac =
      static_cast<double>(live) / static_cast<double>(total);
  if (gemm) {
    // Split output rows across CUs; every CU streams the full B operand.
    const std::size_t m_share =
        (call.m + static_cast<std::size_t>(cus) - 1) / cus;
    const auto cu_stats = pool->cu.run_gemm(m_share, call.k, call.n);
    // Interconnect: B (k x n) broadcast once + per-CU A/C shares, 2 B each.
    const double bytes =
        2.0 * (static_cast<double>(call.k) * call.n +
               static_cast<double>(call.m) * call.k +
               static_cast<double>(call.m) * call.n);
    const double transfer_cycles = bytes / config_.interconnect_bytes_per_cycle;
    // Double-buffered against compute: the slower one paces the kernel.
    stats.cycles = core::to_u64(
        where, "cycles",
        std::max(static_cast<double>(cu_stats.cycles) * pace,
                 transfer_cycles) +
            config_.dispatch_cycles);
    stats.flops = 2ull * call.m * call.k * call.n;
    stats.energy_pj = cu_stats.energy_pj * cus *
                      (static_cast<double>(call.m) /
                       (static_cast<double>(m_share) * cus));  // useful share
    // Idle CU leakage on the padded share plus transfer energy.
    stats.energy_pj += bytes * 0.3;  // pJ/byte on-chip interconnect
  } else {
    const ElementCost cost = element_cost(call.kind);
    const std::size_t share =
        (call.m + static_cast<std::size_t>(cus) - 1) / cus;
    const auto cu_stats =
        pool->cu.run_elementwise(share, cost.ops, cost.flops);
    stats.cycles = core::add_u64(
        where, "cycles",
        core::to_u64(where, "cycles",
                     static_cast<double>(cu_stats.cycles) * pace),
        core::to_u64(where, "dispatch_cycles", config_.dispatch_cycles));
    stats.flops = static_cast<std::uint64_t>(
        static_cast<double>(call.m) * cost.flops);
    stats.energy_pj = static_cast<double>(call.m) * cost.ops *
                      pool->cu.config().core_op_energy_pj;
  }
  if (!config_.repartition_on_failure && health.failed_cus > 0) {
    // The dead CUs' shares were never computed: the result is incomplete
    // and only the surviving fraction of the work (flops, dynamic energy)
    // was actually performed.
    stats.completed = false;
    stats.lost_kernels = 1;
    stats.flops = static_cast<std::uint64_t>(
        static_cast<double>(stats.flops) * live_frac);
    stats.energy_pj *= live_frac;
  }
  return stats;
}

FabricRunStats ScalableComputeFabric::run_trace(
    const std::vector<KernelCall>& trace) const {
  ICSC_TRACE_SPAN("scf/run_trace");
  ICSC_TRACE_COUNT("scf.kernels", trace.size());
  FabricRunStats total;
  for (const auto& call : trace) {
    const auto stats = run_kernel(call);
    total.cycles = core::add_u64("scf::ScalableComputeFabric::run_trace",
                                 "cycles", total.cycles, stats.cycles);
    total.flops += stats.flops;
    total.energy_pj += stats.energy_pj;
    total.completed = total.completed && stats.completed;
    total.lost_kernels += stats.lost_kernels;
    if (stats.lost_kernels > 0) {
      ICSC_TRACE_COUNT("scf.lost_kernels",
                       static_cast<std::uint64_t>(stats.lost_kernels));
    }
  }
  // Static power of the live CUs over the run (dead CUs are powered off).
  const double seconds = total.seconds(config_.cu.fclk_mhz);
  total.energy_pj +=
      (config_.cu.static_power_mw * tensor_.health.active_cus +
       config_.vector_cu.static_power_mw * vector_.health.active_cus +
       config_.uncore_power_mw) *
      1e-3 * seconds * 1e12;
  return total;
}

DegradedKpi ScalableComputeFabric::degraded_kpi(
    const std::vector<KernelCall>& trace) const {
  DegradedKpi kpi;
  kpi.health = tensor_.health;
  FabricConfig healthy_cfg = config_;
  healthy_cfg.faults = core::FaultConfig{};
  healthy_cfg.forced_failed_cus = 0;
  healthy_cfg.forced_failed_vector_cus = 0;
  const ScalableComputeFabric healthy(healthy_cfg);
  const auto h = healthy.run_trace(trace);
  const auto d = run_trace(trace);
  kpi.completed = d.completed;
  kpi.healthy_cycles = static_cast<double>(h.cycles);
  kpi.degraded_cycles = static_cast<double>(d.cycles);
  kpi.slowdown =
      h.cycles > 0 ? kpi.degraded_cycles / kpi.healthy_cycles : 1.0;
  kpi.healthy_gflops = h.gflops(config_.cu.fclk_mhz);
  kpi.degraded_gflops = d.gflops(config_.cu.fclk_mhz);
  return kpi;
}

double ScalableComputeFabric::average_power_w(
    const FabricRunStats& stats) const {
  const double seconds = stats.seconds(config_.cu.fclk_mhz);
  return seconds > 0 ? stats.energy_pj * 1e-12 / seconds : 0.0;
}

double ScalableComputeFabric::tflops_per_watt(
    const FabricRunStats& stats) const {
  const double watts = average_power_w(stats);
  const double seconds = stats.seconds(config_.cu.fclk_mhz);
  if (watts <= 0 || seconds <= 0) return 0.0;
  return static_cast<double>(stats.flops) / seconds * 1e-12 / watts;
}

std::vector<ScalingPoint> strong_scaling(const TransformerConfig& model,
                                         const FabricConfig& base,
                                         int max_cus) {
  const auto trace = kernel_trace(model);

  std::vector<ScalingPoint> points;
  double single_cycles = 0.0;
  for (int cus = 1; cus <= max_cus; cus *= 2) {
    FabricConfig config = base;
    config.num_cus = cus;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    ScalingPoint point;
    point.cus = cus;
    if (cus == 1) single_cycles = static_cast<double>(stats.cycles);
    point.speedup = single_cycles / static_cast<double>(stats.cycles);
    point.efficiency = point.speedup / cus;
    point.gflops = stats.gflops(config.cu.fclk_mhz);
    point.tflops_per_watt = fabric.tflops_per_watt(stats);
    points.push_back(point);
  }
  return points;
}

std::vector<ScalingPoint> weak_scaling(const TransformerConfig& base_model,
                                       const FabricConfig& base, int max_cus) {
  std::vector<ScalingPoint> points;
  double base_rate = 0.0;  // flops per cycle on 1 CU
  for (int cus = 1; cus <= max_cus; cus *= 2) {
    TransformerConfig model = base_model;
    model.seq_len = base_model.seq_len * static_cast<std::size_t>(cus);
    const auto trace = kernel_trace(model);

    FabricConfig config = base;
    config.num_cus = cus;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    const double rate = static_cast<double>(stats.flops) /
                        static_cast<double>(stats.cycles);
    ScalingPoint point;
    point.cus = cus;
    if (cus == 1) base_rate = rate;
    point.speedup = rate / base_rate;
    point.efficiency = point.speedup / cus;
    point.gflops = stats.gflops(config.cu.fclk_mhz);
    point.tflops_per_watt = fabric.tflops_per_watt(stats);
    points.push_back(point);
  }
  return points;
}

std::vector<MixPoint> sweep_cu_mix(const TransformerConfig& model,
                                   int total_cus) {
  const auto trace = kernel_trace(model);

  std::vector<MixPoint> points;
  for (int vector_cus = 0; vector_cus <= total_cus / 2;
       vector_cus += (vector_cus < 4 ? 1 : 2)) {
    FabricConfig config;
    config.num_cus = total_cus - vector_cus;
    config.vector_cus = vector_cus;
    const ScalableComputeFabric fabric(config);
    const auto stats = fabric.run_trace(trace);
    MixPoint point;
    point.tensor_cus = config.num_cus;
    point.vector_cus = vector_cus;
    point.cycles = static_cast<double>(stats.cycles);
    point.gflops = stats.gflops(config.cu.fclk_mhz);
    point.tflops_per_watt = fabric.tflops_per_watt(stats);
    points.push_back(point);
  }
  return points;
}

}  // namespace icsc::scf
