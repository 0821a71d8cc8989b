// RISC-V Compute Unit model (Sec. VII, Fig. 9).
//
// "Figure 9 shows a prototype Compute Unit developed within the ICSC
// Flagship 2 for the acceleration of DNN and Transformer units. The CU,
// laid out in GlobalFoundries 12nm technology, occupies ~1.21mm^2 ...
// Thanks to accelerators using the BFloat16 precision for all major
// Transformer blocks, the CU achieves up to 150 GFLOPS and 1.5 TFLOPS/W at
// 460 MHz, 0.55 V."
//
// The model: a cluster of RISC-V cores (Snitch/CV32E40P-class) sharing an
// L1 scratchpad with a RedMule-style bf16 tensor engine (a rows x cols FMA
// grid) and a double-buffering DMA. GEMM work runs tile-by-tile on the
// grid; elementwise/softmax/normalisation work runs on the cores. Energy
// uses per-op costs calibrated to the published 12nm operating point.
#pragma once

#include <cstdint>
#include <string>

#include "core/metrics.hpp"

namespace icsc::scf {

struct CuConfig {
  std::string name = "ICSC CU (GF12, bf16)";
  int cores = 8;                 // compute-oriented RISC-V cores
  int tensor_rows = 12;          // RedMule-like FMA grid
  int tensor_cols = 14;
  double l1_kib = 128.0;
  double dma_bytes_per_cycle = 32.0;  // toward L2/HBM
  double fclk_mhz = 460.0;
  double vdd = 0.55;
  double area_mm2 = 1.21;
  // Energy at the nominal (460 MHz, 0.55 V) point.
  double fma_energy_pj = 1.0;    // one bf16 FMA incl. local operand motion
  double core_op_energy_pj = 2.0;  // one scalar core op (FPU + L1)
  double dma_byte_energy_pj = 0.8;
  double static_power_mw = 15.0;

  /// Peak bf16 FLOP/s: grid FMAs count as 2 FLOPs.
  double peak_gflops() const {
    return 2.0 * tensor_rows * tensor_cols * fclk_mhz * 1e-3;
  }

  /// Throws core::Error unless cores, tensor_rows and tensor_cols are >= 1,
  /// fclk_mhz, vdd and dma_bytes_per_cycle are finite and > 0, and every
  /// energy and power is finite and >= 0.
  void validate() const;
};

/// Voltage/frequency operating point scaling: energy ~ V^2, static ~ V^3,
/// fclk given explicitly (the CU is characterised at 460 MHz / 0.55 V).
CuConfig at_operating_point(const CuConfig& base, double fclk_mhz, double vdd);

/// Result of running a kernel on the CU.
struct CuRunStats {
  std::uint64_t cycles = 0;
  std::uint64_t flops = 0;
  double utilization = 0.0;   // FMA-grid busy fraction (GEMM only)
  double energy_pj = 0.0;

  double seconds(double fclk_mhz) const {
    return static_cast<double>(cycles) / (fclk_mhz * 1e6);
  }
  double gflops(double fclk_mhz) const {
    const double s = seconds(fclk_mhz);
    return s > 0 ? static_cast<double>(flops) / s * 1e-9 : 0.0;
  }
};

class ComputeUnit {
public:
  /// Throws core::Error when config.validate() does.
  explicit ComputeUnit(CuConfig config = {});

  const CuConfig& config() const { return config_; }

  /// Tiled bf16 GEMM C[m,n] += A[m,k] B[k,n] on the tensor engine with
  /// double-buffered DMA; returns cycle/energy statistics.
  CuRunStats run_gemm(std::size_t m, std::size_t k, std::size_t n) const;

  /// Elementwise / reduction work on the cores: `elements` items at
  /// `ops_per_element` core operations each (softmax ~ 6, layernorm ~ 5,
  /// gelu ~ 8, add ~ 1).
  CuRunStats run_elementwise(std::size_t elements, double ops_per_element,
                             double flops_per_element) const;

  /// Combines statistics of consecutive kernels (sequential execution).
  static CuRunStats combine(const CuRunStats& a, const CuRunStats& b);

  /// Average power (W) implied by a run at the configured clock.
  double average_power_w(const CuRunStats& stats) const;

  /// TFLOPS/W of a run.
  double tflops_per_watt(const CuRunStats& stats) const;

private:
  CuConfig config_;
};

}  // namespace icsc::scf
