// DNN-on-IMC inference runner (Sec. IV, system level).
//
// Bridges the core::nn networks to the analog substrate: each dense layer
// of a trained MLP is programmed into a tiled crossbar accelerator, and
// inference runs through the analog arrays while accuracy, energy, and the
// impact of every non-ideality knob (programming scheme, drift time, ADC
// resolution, read noise) are measured. This reproduces the Sec. IV
// storyline: naive programming degrades DNN accuracy; program-and-verify
// restores it; drift erodes it over time; DIMC sidesteps analog error at
// a different energy point.
#pragma once

#include <memory>
#include <vector>

#include "core/nn.hpp"
#include "imc/dimc.hpp"
#include "imc/tile.hpp"

namespace icsc::imc {

/// Runs every dense layer of an MLP through tiled analog crossbars.
class AnalogMlpBackend : public core::MatvecOverride {
public:
  /// Throws core::Error when config.validate() does.
  AnalogMlpBackend(const core::Mlp& mlp, const TileConfig& config);

  /// Evaluation time (seconds after programming) used for drift; throws
  /// core::Error unless it is finite and >= 0.
  void set_read_time(double t_seconds);

  std::vector<float> matvec(std::size_t layer_index,
                            const core::TensorF& weights,
                            std::span<const float> x) override;

  double total_energy_pj() const;
  std::uint64_t total_ops() const { return ops_; }

private:
  std::vector<std::unique_ptr<TiledMatvec>> layers_;
  double t_seconds_ = 1.0;
  std::uint64_t ops_ = 0;
};

/// Runs every dense layer through an exact DIMC macro.
class DimcMlpBackend : public core::MatvecOverride {
public:
  DimcMlpBackend(const core::Mlp& mlp, const DimcConfig& config);

  std::vector<float> matvec(std::size_t layer_index,
                            const core::TensorF& weights,
                            std::span<const float> x) override;

  double total_energy_pj() const;
  std::uint64_t total_ops() const { return ops_; }

private:
  std::vector<std::unique_ptr<DimcMacro>> layers_;
  std::uint64_t ops_ = 0;
};

/// One row of the Sec. IV accuracy experiments.
struct ImcAccuracyPoint {
  double software_accuracy = 0.0;  // fp32 reference
  double imc_accuracy = 0.0;
  double energy_per_inference_nj = 0.0;
};

/// Trains (deterministically) an MLP on the Gaussian-cluster task and
/// evaluates it through the given tile configuration at `t_seconds`.
ImcAccuracyPoint run_imc_experiment(const TileConfig& config,
                                    double t_seconds, std::uint64_t seed);

}  // namespace icsc::imc
