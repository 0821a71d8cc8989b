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
//
// "CUs are based on (not necessarily identical) clusters of one or more
// RISC-V cores ... Each CU can further be augmented with special purpose
// units, such as vector processing units tightly-coupled to the cores
// [48]; local neural processing units (NPUs) [49]; tensor cores [50]".
// A fabric holds up to two CU pools. The tensor pool (RedMule-style grid,
// few cores) takes the GEMMs; an optional vector pool (Spatz-style, many
// lanes, no grid) takes the softmax/layernorm/GELU work the grids execute
// poorly. Without a vector pool every kernel runs on the tensor pool.
#pragma once

#include <cstdint>

#include "core/fault.hpp"
#include "scf/compute_unit.hpp"
#include "scf/transformer.hpp"

namespace icsc::scf {

/// Spatz-style vector CU: many execution lanes, no tensor grid. Same
/// 12nm-class energy figures; area comparable to the tensor CU.
CuConfig vector_cu_config() noexcept;

struct FabricConfig {
  /// The tensor pool's CU and CU count.
  CuConfig cu;
  int num_cus = 16;
  /// The optional vector pool's CU and CU count; 0 (the default) means no
  /// vector pool.
  CuConfig vector_cu = vector_cu_config();
  int vector_cus = 0;
  /// Shared interconnect bandwidth toward L2/HBM (bytes per CU-clock cycle).
  double interconnect_bytes_per_cycle = 128.0;
  /// Host/controller dispatch latency per kernel (cycles).
  double dispatch_cycles = 400.0;
  /// Uncore (host + interconnect + L2) power in mW.
  double uncore_power_mw = 120.0;
  /// CU-level fault injection (core/fault.hpp): dropout/stuck CUs are dead
  /// (powered off, excluded from partitioning), delay-faulted CUs are alive
  /// but pace every barrier of their pool by `slow_cu_penalty`. Tensor CUs
  /// occupy fault sites 0 upward, vector CUs sites
  /// ScalableComputeFabric::kVectorSiteBase upward. Rates default to zero.
  core::FaultConfig faults;
  /// Deterministically fail the first N CUs of each pool on top of
  /// `faults` (tests and sweeps that need an exact failure count).
  int forced_failed_cus = 0;
  int forced_failed_vector_cus = 0;
  /// When true (default) kernels are re-partitioned across the surviving
  /// CUs of their pool, and a pool with no survivors hands its kernels to
  /// the other pool, so every kernel completes while one CU lives. When
  /// false, shares assigned to dead CUs are simply lost: the run reports
  /// completed = false -- the silent-corruption baseline the bench
  /// contrasts against.
  bool repartition_on_failure = true;
  /// Cycle multiplier a delay-faulted CU imposes on the kernels it joins
  /// (bulk-synchronous execution waits on the laggard).
  double slow_cu_penalty = 2.0;

  /// Throws core::Error when cu.validate(), vector_cu.validate() or
  /// faults.validate() does, or unless num_cus >= 1, vector_cus >= 0, interconnect_bytes_per_cycle
  /// is finite and > 0, dispatch_cycles and uncore_power_mw are finite and
  /// >= 0, and slow_cu_penalty is finite and >= 1.
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

/// CU census of one pool of a (possibly degraded) fabric. Dropout/stuck
/// faults kill a CU, delay/drift faults mark it slow.
struct FabricHealth {
  int total_cus = 0;
  int failed_cus = 0;  // dropout/stuck: dead, powered off
  int slow_cus = 0;    // delay-faulted: alive but pace barriers
  int active_cus = 0;  // total - failed
};

/// Degraded-mode KPI report: the faulty fabric against its healthy twin.
struct DegradedKpi {
  FabricHealth health;  // the tensor pool's census
  bool completed = true;
  double healthy_cycles = 0.0;
  double degraded_cycles = 0.0;
  double slowdown = 1.0;  // degraded / healthy
  double healthy_gflops = 0.0;
  double degraded_gflops = 0.0;
};

class ScalableComputeFabric {
public:
  /// Fault-site base for vector CUs (keeps the two pools' sites disjoint).
  static constexpr std::uint64_t kVectorSiteBase = 1000;

  /// Throws core::Error when config.validate() does.
  explicit ScalableComputeFabric(const FabricConfig& config = {});

  const FabricConfig& config() const { return config_; }

  /// CU failure census of the tensor pool, resolved at construction
  /// (deterministic per seed).
  const FabricHealth& health() const { return tensor_.health; }
  /// CU failure census of the vector pool (all zero without one).
  const FabricHealth& vector_health() const { return vector_.health; }
  /// True while at least one CU of either pool lives.
  bool operational() const {
    return tensor_.health.active_cus + vector_.health.active_cus > 0;
  }

  /// Executes one kernel on its pool: GEMMs on the tensor pool, everything
  /// else on the vector pool when there is one. With failures present and
  /// repartitioning enabled, work is split across the pool's surviving CUs,
  /// or moves to the other pool when none survive.
  FabricRunStats run_kernel(const KernelCall& call) const;

  /// Executes a transformer-block trace kernel by kernel (kernels are
  /// dependent, so they serialise; within a kernel, CUs run in parallel).
  FabricRunStats run_trace(const std::vector<KernelCall>& trace) const;

  /// Runs the trace on this fabric and on a twin without faults or forced
  /// failures in either pool, and reports the degraded-mode KPIs
  /// (slowdown, completion, throughput).
  DegradedKpi degraded_kpi(const std::vector<KernelCall>& trace) const;

  /// Average power (W) of a run: active CUs of both pools + uncore.
  double average_power_w(const FabricRunStats& stats) const;
  double tflops_per_watt(const FabricRunStats& stats) const;

private:
  struct Pool {
    ComputeUnit cu;
    FabricHealth health;
  };

  FabricConfig config_;
  Pool tensor_;
  Pool vector_;
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

/// One fabric of a CU-mix sweep; vector_cus == 0 is the one-pool fabric.
struct MixPoint {
  int tensor_cus = 0;
  int vector_cus = 0;
  double cycles = 0.0;
  double gflops = 0.0;
  double tflops_per_watt = 0.0;
};

/// Runs kernel_trace(model) on default fabrics of `total_cus` CUs, from
/// all tensor CUs up to half of them vector CUs.
std::vector<MixPoint> sweep_cu_mix(const TransformerConfig& model,
                                   int total_cus);

}  // namespace icsc::scf
