// Fixed-point convolution and transposed-convolution engines (Sec. V).
//
// These model the datapaths of the FPGA accelerators in [14], [16]: 16-bit
// fixed-point data/weights (Table I), wide accumulators, MAC counting per
// the hardware loop structure. HTCONV -- the paper's Fig. 3 contribution --
// computes the transposed convolution accurately inside a foveal region and
// interpolates three of the four output phases outside it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/image.hpp"
#include "core/metrics.hpp"
#include "core/tensor.hpp"

namespace icsc::approx {

/// Feature maps are [channels, height, width] float tensors whose values
/// have been quantised per the active QuantConfig (fixed-point simulation).
using FeatureMap = core::TensorF;

/// Throws core::Error, naming `where`, unless `input` is a
/// [channels, h, w] feature map. Every conv entry point checks its input
/// with it before indexing.
void require_feature_map(const FeatureMap& input, std::size_t channels,
                         const char* where);

/// Fixed-point quantisation policy applied at layer boundaries.
/// Disabled => pure floating-point reference (the "FP" rows of Table I).
struct QuantConfig {
  bool enabled = true;
  int activation_int_bits = 7;   // Q7.8 activations ("16-bit data")
  int activation_frac_bits = 8;
  int weight_int_bits = 3;       // Q3.12 weights ("16-bit weights")
  int weight_frac_bits = 12;

  /// Throws core::Error unless every bit width is >= 0 and int + frac <=
  /// 30 for activations and for weights: the approximate datapath holds
  /// raw values and 1 << frac_bits in an int. Every entry point that
  /// quantises calls it, whether or not `enabled` is set.
  void validate() const;

  /// Both throw core::Error as validate() does.
  float quantize_activation(float v) const;
  float quantize_weight(float v) const;
};

/// Quantises every element of a feature map in place. Throws core::Error
/// as QuantConfig::validate() does.
void quantize_map(FeatureMap& map, const QuantConfig& config);

/// Standard 2-D convolution layer: weights [Cout, Cin, k, k], zero padding
/// "same", stride 1, optional ReLU. MACs counted as k*k*Cin per output
/// element (the dense MAC-array loop the FPGA engine executes).
struct ConvLayer {
  core::TensorF weights;      // [Cout, Cin, k, k]
  std::vector<float> bias;    // [Cout]
  bool relu = true;

  std::size_t out_channels() const { return weights.dim(0); }
  std::size_t in_channels() const { return weights.dim(1); }
  std::size_t kernel() const { return weights.dim(2); }

  /// Fast path, bit-identical to `apply_reference`. With quantisation on,
  /// int16 formats, every input on the activation grid and every bias on
  /// the accumulator grid, the taps run as exact int16 MACs on zero-padded
  /// channel-pair planes (conv_kernels.hpp, "Exact Q16 integer path").
  /// Otherwise im2col row panels keep the reference (ic, u, v) order per
  /// output in f64. Both applies throw core::Error unless `input` is
  /// [in_channels(), h, w], and as QuantConfig::validate() does.
  FeatureMap apply(const FeatureMap& input, const QuantConfig& config,
                   core::OpCounter* ops = nullptr) const;

  /// The original scalar 5-deep loop, retained as the equivalence oracle
  /// for tests and the old-path baseline for bench_kernels.
  FeatureMap apply_reference(const FeatureMap& input, const QuantConfig& config,
                             core::OpCounter* ops = nullptr) const;
};

/// Circular foveal region in low-resolution pixel coordinates. The human
/// visual system has "high visual acuity in a very small region, called the
/// fovea"; HTCONV computes accurately only there.
struct FovealRegion {
  double center_row = 0.0;
  double center_col = 0.0;
  double radius = 0.0;

  bool contains(std::size_t row, std::size_t col) const {
    const double dr = static_cast<double>(row) - center_row;
    const double dc = static_cast<double>(col) - center_col;
    return dr * dr + dc * dc <= radius * radius;
  }

  /// Fovea centred in an H x W frame covering `fraction` of its area.
  static FovealRegion centered(std::size_t height, std::size_t width,
                               double fraction);
  /// Fovea covering the whole frame (HTCONV degenerates to exact TCONV).
  static FovealRegion full(std::size_t height, std::size_t width);
};

/// Transposed-convolution (stride 2) layer producing a single output
/// channel from weights [Cin, t, t], evaluated via the zero-insertion
/// formulation of Fig. 3. Any t >= 1 is valid: the kernel is anchored at
/// offset (t - 1) / 2, which centres odd kernels and places even ones one
/// tap off centre, the same way on every path (exact, foveated, reference).
struct TconvLayer {
  core::TensorF weights;  // [Cin, t, t]
  float bias = 0.0F;

  std::size_t in_channels() const { return weights.dim(0); }
  std::size_t kernel() const { return weights.dim(1); }

  /// Conventional TCONV: all four output phases computed accurately.
  /// MACs counted as 4 * t^2 * Cin per LR pixel (the Fig. 3 loop bounds).
  /// All three applies throw core::Error unless `input` is
  /// [in_channels(), h, w].
  core::Image apply_exact(const FeatureMap& input, const QuantConfig& config,
                          core::OpCounter* ops = nullptr) const;

  /// HTCONV (Fig. 3): inside `fovea` all four phases are accurate; outside,
  /// only the even phase is computed (t^2 * Cin MACs) and the other three
  /// are bilinear interpolations of even-phase neighbours (adds/shifts,
  /// counted as "interp_add"). With quantisation on and every input on the
  /// activation grid, the phases run as exact int16 MACs on edge-replicated
  /// channel-pair planes; the bias is added to the exact sum either way.
  core::Image apply_foveated(const FeatureMap& input, const FovealRegion& fovea,
                             const QuantConfig& config,
                             core::OpCounter* ops = nullptr) const;

  /// The pre-blocking per-pixel tap walk (parity test and border clamp in
  /// the innermost loops), retained as the equivalence oracle for tests and
  /// the old-path baseline for bench_kernels. Bit-identical to
  /// `apply_foveated`.
  core::Image apply_foveated_reference(const FeatureMap& input,
                                       const FovealRegion& fovea,
                                       const QuantConfig& config,
                                       core::OpCounter* ops = nullptr) const;
};

/// The FSRCNN layer stack: `layers` in order, then `tconv`'s
/// apply_foveated over `fovea`. Bit-identical to feeding each layer's
/// apply into the next. Where the integer path can run, activations stay
/// int16 channel-pair planes from layer to layer: each epilogue writes its
/// requantised outputs straight into the next layer's padded planes, with
/// no float map in between. A layer the integer path cannot hold, and
/// every layer after it, runs through its apply. Throws core::Error unless
/// each layer's input channels match what feeds it, and as
/// QuantConfig::validate() does.
core::Image apply_layer_stack(std::span<const ConvLayer> layers,
                              const TconvLayer& tconv,
                              const FeatureMap& input,
                              const FovealRegion& fovea,
                              const QuantConfig& config,
                              core::OpCounter* ops = nullptr);

}  // namespace icsc::approx
