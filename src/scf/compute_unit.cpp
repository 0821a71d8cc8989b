#include "scf/compute_unit.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace icsc::scf {

void CuConfig::validate() const {
  const std::string where = "scf::CuConfig";
  core::require_at_least(where, "cores", cores, 1);
  core::require_at_least(where, "tensor_rows", tensor_rows, 1);
  core::require_at_least(where, "tensor_cols", tensor_cols, 1);
  core::require_positive(where, "fclk_mhz", fclk_mhz);
  core::require_positive(where, "vdd", vdd);
  core::require_positive(where, "dma_bytes_per_cycle", dma_bytes_per_cycle);
  core::require_at_least(where, "fma_energy_pj", fma_energy_pj, 0.0);
  core::require_at_least(where, "core_op_energy_pj", core_op_energy_pj, 0.0);
  core::require_at_least(where, "dma_byte_energy_pj", dma_byte_energy_pj, 0.0);
  core::require_at_least(where, "static_power_mw", static_power_mw, 0.0);
}

CuConfig at_operating_point(const CuConfig& base, double fclk_mhz,
                            double vdd) {
  CuConfig config = base;
  config.fclk_mhz = fclk_mhz;
  config.vdd = vdd;
  const double v_ratio = vdd / base.vdd;
  config.fma_energy_pj = base.fma_energy_pj * v_ratio * v_ratio;
  config.core_op_energy_pj = base.core_op_energy_pj * v_ratio * v_ratio;
  config.dma_byte_energy_pj = base.dma_byte_energy_pj * v_ratio * v_ratio;
  config.static_power_mw = base.static_power_mw * v_ratio * v_ratio * v_ratio;
  return config;
}

ComputeUnit::ComputeUnit(CuConfig config) : config_(config) {
  config_.validate();
}

CuRunStats ComputeUnit::run_gemm(std::size_t m, std::size_t k,
                                 std::size_t n) const {
  CuRunStats stats;
  if (m == 0 || k == 0 || n == 0) return stats;
  const auto rows = static_cast<std::size_t>(config_.tensor_rows);
  const auto cols = static_cast<std::size_t>(config_.tensor_cols);
  const std::size_t m_tiles = (m + rows - 1) / rows;
  const std::size_t n_tiles = (n + cols - 1) / cols;

  // Each output tile streams the full k dimension through the grid:
  // k cycles of rows x cols FMAs (partial tiles waste grid slots).
  const std::uint64_t compute_cycles_per_tile = k;
  // Double-buffered DMA per tile, weight-stationary: the B slab (k x cols)
  // stays resident across the m_tiles of its column strip; A slabs
  // (rows x k) and the C writeback (rows x cols) move per tile. bf16 = 2 B.
  const double tile_bytes =
      2.0 * (static_cast<double>(rows) * k +
             static_cast<double>(k) * cols / static_cast<double>(m_tiles) +
             static_cast<double>(rows) * cols);
  const double dma_cycles_per_tile = tile_bytes / config_.dma_bytes_per_cycle;
  // Steady state: compute and DMA overlap; the slower one paces the loop.
  const double paced =
      std::max(static_cast<double>(compute_cycles_per_tile),
               dma_cycles_per_tile);
  const std::size_t tiles = m_tiles * n_tiles;
  const char* where = "scf::ComputeUnit::run_gemm";
  stats.cycles = core::add_u64(
      where, "cycles",
      core::to_u64(where, "cycles", paced * static_cast<double>(tiles)),
      core::to_u64(where, "prologue cycles", dma_cycles_per_tile));

  stats.flops = 2ull * m * k * n;
  const double ideal_cycles =
      static_cast<double>(m) * static_cast<double>(k) * n /
      (static_cast<double>(rows) * cols);
  stats.utilization =
      stats.cycles > 0 ? ideal_cycles / static_cast<double>(stats.cycles) : 0.0;

  // Energy: FMAs actually useful + grid overhead on partial tiles is
  // clock-gated (counted at 20%), plus DMA traffic, plus leakage.
  const double useful_fmas = static_cast<double>(m) * k * n;
  const double issued_fmas = static_cast<double>(tiles) * k * rows * cols;
  const double gated_fmas = issued_fmas - useful_fmas;
  stats.energy_pj = useful_fmas * config_.fma_energy_pj +
                    gated_fmas * config_.fma_energy_pj * 0.2 +
                    static_cast<double>(tiles) * tile_bytes *
                        config_.dma_byte_energy_pj;
  stats.energy_pj += config_.static_power_mw * 1e-3 *  // W
                     (static_cast<double>(stats.cycles) /
                      (config_.fclk_mhz * 1e6)) *
                     1e12;  // -> pJ
  return stats;
}

CuRunStats ComputeUnit::run_elementwise(std::size_t elements,
                                        double ops_per_element,
                                        double flops_per_element) const {
  CuRunStats stats;
  if (elements == 0) return stats;
  const double total_ops = static_cast<double>(elements) * ops_per_element;
  stats.cycles =
      core::to_u64("scf::ComputeUnit::run_elementwise", "cycles",
                   std::ceil(total_ops / static_cast<double>(config_.cores)));
  stats.flops = static_cast<std::uint64_t>(
      static_cast<double>(elements) * flops_per_element);
  stats.energy_pj = total_ops * config_.core_op_energy_pj;
  stats.energy_pj += config_.static_power_mw * 1e-3 *
                     (static_cast<double>(stats.cycles) /
                      (config_.fclk_mhz * 1e6)) *
                     1e12;
  stats.utilization = 0.0;  // grid idle
  return stats;
}

CuRunStats ComputeUnit::combine(const CuRunStats& a, const CuRunStats& b) {
  CuRunStats out;
  out.cycles = a.cycles + b.cycles;
  out.flops = a.flops + b.flops;
  out.energy_pj = a.energy_pj + b.energy_pj;
  const double weight_a = static_cast<double>(a.cycles);
  const double weight_b = static_cast<double>(b.cycles);
  out.utilization =
      (weight_a + weight_b) > 0
          ? (a.utilization * weight_a + b.utilization * weight_b) /
                (weight_a + weight_b)
          : 0.0;
  return out;
}

double ComputeUnit::average_power_w(const CuRunStats& stats) const {
  const double seconds = stats.seconds(config_.fclk_mhz);
  return seconds > 0 ? stats.energy_pj * 1e-12 / seconds : 0.0;
}

double ComputeUnit::tflops_per_watt(const CuRunStats& stats) const {
  const double watts = average_power_w(stats);
  const double seconds = stats.seconds(config_.fclk_mhz);
  if (watts <= 0 || seconds <= 0) return 0.0;
  return static_cast<double>(stats.flops) / seconds * 1e-12 / watts;
}

}  // namespace icsc::scf
