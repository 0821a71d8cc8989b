// Scalable Compute Fabric (Sec. VII, Fig. 8).
//
// "The template includes, on a single silicon chip/chiplet, a heterogeneous
// acceleration system with a host/controller Linux capable processor
// (e.g., based on the CVA6 design) and an acceleration fabric composed of a
// collection of Compute Units (CUs) ... connected using a scalable
// interconnect, such as a hierarchical AXI [45], [46] or a
// Network-on-Chip [47]."
//
// The model partitions each kernel of a transformer trace across the CUs
// (GEMMs split along the output rows, elementwise kernels split evenly),
// charges the shared interconnect for weight/activation movement, and adds
// a host dispatch cost per kernel -- the three effects that bound strong
// scaling.
#pragma once

#include <cstdint>

#include "core/fault.hpp"
#include "scf/compute_unit.hpp"
#include "scf/transformer.hpp"

namespace icsc::scf {

struct FabricConfig {
  CuConfig cu;
  int num_cus = 16;
  /// Shared interconnect bandwidth toward L2/HBM (bytes per CU-clock cycle).
  double interconnect_bytes_per_cycle = 128.0;
  /// Host/controller dispatch latency per kernel (cycles).
  double dispatch_cycles = 400.0;
  /// Uncore (host + interconnect + L2) power in mW.
  double uncore_power_mw = 120.0;
  /// CU-level fault injection (core/fault.hpp): dropout/stuck CUs are dead
  /// (powered off, excluded from partitioning), delay-faulted CUs are alive
  /// but pace every barrier by `slow_cu_penalty`. Rates default to zero.
  core::FaultConfig faults;
  /// Deterministically fails the first N CUs on top of `faults` (tests and
  /// sweeps that need an exact failure count).
  int forced_failed_cus = 0;
  /// When true (default) kernels are re-partitioned across the surviving
  /// CUs, so every kernel completes while at least one CU lives. When
  /// false, shares assigned to dead CUs are simply lost: the run reports
  /// completed = false -- the silent-corruption baseline the bench
  /// contrasts against.
  bool repartition_on_failure = true;
  /// Cycle multiplier a delay-faulted CU imposes on the kernels it joins
  /// (bulk-synchronous execution waits on the laggard).
  double slow_cu_penalty = 2.0;

  /// Throws core::Error when cu.validate() does, or unless
  /// interconnect_bytes_per_cycle is finite and > 0, dispatch_cycles and
  /// uncore_power_mw are finite and >= 0, and slow_cu_penalty is finite
  /// and >= 1.
  void validate() const;
};

struct FabricRunStats {
  std::uint64_t cycles = 0;
  std::uint64_t flops = 0;
  double energy_pj = 0.0;
  /// False when any kernel work was lost to failed CUs (only possible with
  /// repartition_on_failure = false or a fully-dead fabric).
  bool completed = true;
  /// Kernels that lost at least one CU share.
  std::size_t lost_kernels = 0;

  double seconds(double fclk_mhz) const {
    return static_cast<double>(cycles) / (fclk_mhz * 1e6);
  }
  double gflops(double fclk_mhz) const {
    const double s = seconds(fclk_mhz);
    return s > 0 ? static_cast<double>(flops) / s * 1e-9 : 0.0;
  }
};

/// CU census of a (possibly degraded) fabric.
struct FabricHealth {
  int total_cus = 0;
  int failed_cus = 0;  // dropout/stuck: dead, powered off
  int slow_cus = 0;    // delay-faulted: alive but pace barriers
  int active_cus = 0;  // total - failed
  bool operational = true;  // at least one live CU
};

/// Deterministic CU census for `total` CUs occupying fault sites
/// site_base .. site_base+total-1 (the first `forced` CUs are failed
/// unconditionally). Dropout/stuck faults kill a CU, delay/drift faults
/// mark it slow.
FabricHealth census_cus(const core::FaultConfig& faults, int total, int forced,
                        std::uint64_t site_base = 0);

/// Degraded-mode KPI report: the faulty fabric against its healthy twin.
struct DegradedKpi {
  FabricHealth health;
  bool completed = true;
  double healthy_cycles = 0.0;
  double degraded_cycles = 0.0;
  double slowdown = 1.0;  // degraded / healthy
  double healthy_gflops = 0.0;
  double degraded_gflops = 0.0;
};

class ScalableComputeFabric {
public:
  /// Throws core::Error when config.validate() does.
  explicit ScalableComputeFabric(FabricConfig config = {});

  const FabricConfig& config() const { return config_; }

  /// CU failure census resolved at construction (deterministic per seed).
  const FabricHealth& health() const { return health_; }

  /// Executes one kernel across the fabric. With failures present and
  /// repartitioning enabled, work is split across the surviving CUs.
  FabricRunStats run_kernel(const KernelCall& call) const;

  /// Executes a transformer-block trace kernel by kernel (kernels are
  /// dependent, so they serialise; within a kernel, CUs run in parallel).
  FabricRunStats run_trace(const std::vector<KernelCall>& trace) const;

  /// Runs the trace on this fabric and on a fault-free twin and reports
  /// the degraded-mode KPIs (slowdown, completion, throughput).
  DegradedKpi degraded_kpi(const std::vector<KernelCall>& trace) const;

  /// Average power (W) of a run: active CUs + uncore.
  double average_power_w(const FabricRunStats& stats) const;
  double tflops_per_watt(const FabricRunStats& stats) const;

private:
  FabricConfig config_;
  ComputeUnit cu_;
  FabricHealth health_;
};

/// One point of a scaling study. Both studies build their traces with
/// kernel_trace(), from the config alone: the fabric model reads kernel
/// shapes, so no weights are drawn and no numeric forward runs.
struct ScalingPoint {
  int cus = 1;
  double speedup = 1.0;
  double efficiency = 1.0;
  double gflops = 0.0;
  double tflops_per_watt = 0.0;
};

/// Strong-scaling study: kernel_trace(model) on 1, 2, 4, ... max_cus CUs;
/// `speedup` is relative to one CU. Throws core::Error when model or base
/// does not validate.
std::vector<ScalingPoint> strong_scaling(const TransformerConfig& model,
                                         const FabricConfig& base,
                                         int max_cus);

/// Weak-scaling study (Gustafson): the sequence length grows with the CU
/// count so the work per CU stays constant; `speedup` is relative work
/// rate vs one CU on the base model. The SCF template is designed for this
/// regime ("HPC deep learning inference" on growing problem sizes).
/// Throws core::Error when base_model or base does not validate.
std::vector<ScalingPoint> weak_scaling(const TransformerConfig& base_model,
                                       const FabricConfig& base, int max_cus);

}  // namespace icsc::scf
