// Heterogeneous Compute-Unit mixes for the SCF (Sec. VII).
//
// "CUs are based on (not necessarily identical) clusters of one or more
// RISC-V cores ... Each CU can further be augmented with special purpose
// units, such as vector processing units tightly-coupled to the cores
// [48]; local neural processing units (NPUs) [49]; tensor cores [50]".
//
// Transformer blocks mix GEMM-shaped work (tensor engines excel) with
// elementwise/reduction work (softmax, layernorm, GELU -- core/vector
// bound). A heterogeneous fabric routes each kernel to the pool that
// executes it best: tensor CUs (RedMule-style grid, few cores) take the
// GEMMs, vector CUs (Spatz-style, many lanes, no grid) take the rest.
#pragma once

#include "scf/fabric.hpp"

namespace icsc::scf {

/// Spatz-style vector CU: many execution lanes, no tensor grid. Same
/// 12nm-class energy figures; area comparable to the tensor CU.
CuConfig vector_cu_config();

struct HeteroFabricConfig {
  CuConfig tensor_cu;                 // default: the GF12 CU
  int tensor_cus = 12;
  CuConfig vector_cu = vector_cu_config();
  int vector_cus = 4;
  double interconnect_bytes_per_cycle = 128.0;
  double dispatch_cycles = 400.0;
  double uncore_power_mw = 120.0;
  /// CU-level fault injection across both pools: tensor CUs occupy fault
  /// sites 0..tensor_cus-1, vector CUs sites kVectorSiteBase+. Dropout and
  /// stuck faults kill a CU; delay faults pace its pool's barriers.
  core::FaultConfig faults;
  int forced_failed_tensor_cus = 0;
  int forced_failed_vector_cus = 0;
  /// With repartitioning, each pool splits its kernels over its survivors;
  /// when one pool dies entirely, its kernels fall back onto the other
  /// pool (graceful degradation instead of a lost run).
  bool repartition_on_failure = true;
  double slow_cu_penalty = 2.0;

  int total_cus() const { return tensor_cus + vector_cus; }

  /// Throws core::Error when either CU config's validate() does, or on the
  /// fabric-level values FabricConfig::validate() rejects.
  void validate() const;
};

/// Per-pool health census of a heterogeneous fabric.
struct HeteroHealth {
  FabricHealth tensor;
  FabricHealth vector;
  bool operational = true;  // at least one live CU anywhere
};

class HeterogeneousFabric {
public:
  /// Fault-site base for vector CUs (keeps the two pools' sites disjoint).
  static constexpr std::uint64_t kVectorSiteBase = 1000;

  /// Throws core::Error when config.validate() does.
  explicit HeterogeneousFabric(HeteroFabricConfig config = {});

  const HeteroFabricConfig& config() const { return config_; }
  const HeteroHealth& health() const { return health_; }

  FabricRunStats run_kernel(const KernelCall& call) const;
  FabricRunStats run_trace(const std::vector<KernelCall>& trace) const;

  double average_power_w(const FabricRunStats& stats) const;
  double tflops_per_watt(const FabricRunStats& stats) const;

private:
  HeteroFabricConfig config_;
  ComputeUnit tensor_cu_;
  ComputeUnit vector_cu_;
  HeteroHealth health_;
};

/// Comparison of a homogeneous fabric against hetero mixes with the same
/// total CU count on kernel_trace(model).
struct MixPoint {
  int tensor_cus = 0;
  int vector_cus = 0;
  double cycles = 0.0;
  double gflops = 0.0;
  double tflops_per_watt = 0.0;
};

std::vector<MixPoint> sweep_cu_mix(const TransformerConfig& model,
                                   int total_cus);

}  // namespace icsc::scf
