// FSRCNN-style super-resolution pipeline (Sec. V, Table I).
//
// The paper evaluates HTCONV inside "the pre-trained FSRCNN(25,5,1) model
// [19] quantized at 16-bit fixed-point", against the FSRCNN(56,12,4)
// baseline. We do not have the pre-trained Set91 weights offline, so the
// models are built with *analytically constructed* weights: the functional
// path implements a separable polyphase interpolator (tent for the compact
// model, Catmull-Rom for the large one) carried through the
// feature-extraction/shrink/map/expand stack, plus small deterministic
// detail filters that give quantisation and approximation something to
// perturb. This preserves exactly what the experiment measures: MAC-count
// ratios between model configurations (weight-independent) and the PSNR
// penalty of 16-bit quantisation and foveated approximation
// (weight-sensitive, reproduced in shape). See DESIGN.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "approx/conv.hpp"
#include "core/image.hpp"
#include "core/metrics.hpp"

namespace icsc::approx {

/// FSRCNN(d, s, m): feature extraction (5x5, d) -> shrink (1x1, s) ->
/// m x mapping (3x3, s) -> expand (1x1, d) -> deconvolution (9x9, stride 2).
struct FsrcnnConfig {
  int d = 56;
  int s = 12;
  int m = 4;
  /// Interpolation family realised by the deconvolution kernel.
  enum class Upsampler { kTent, kCatmullRom } upsampler = Upsampler::kCatmullRom;
  /// Magnitude of the deterministic non-functional detail weights.
  double detail_scale = 0.02;
  std::uint64_t seed = 2025;

  std::string name() const;

  /// Throws core::Error unless d >= 1, s >= 1, m >= 0 and detail_scale is
  /// finite and >= 0.
  void validate() const;
};

/// How the final transposed convolution is evaluated.
enum class TconvMode {
  kExact,    // conventional TCONV, all phases accurate
  kFoveated  // HTCONV (Fig. 3)
};

class Fsrcnn {
public:
  /// Throws core::Error as FsrcnnConfig::validate() does.
  explicit Fsrcnn(const FsrcnnConfig& config);

  /// Runs 2x super-resolution on a low-resolution image through
  /// apply_layer_stack: with quantisation on, activations stay int16
  /// planes from layer to layer. Throws core::Error as
  /// QuantConfig::validate() does.
  core::Image upscale(const core::Image& lowres, const QuantConfig& quant,
                      TconvMode mode, const FovealRegion& fovea,
                      core::OpCounter* ops = nullptr) const;

  /// Convenience: exact-TCONV evaluation.
  core::Image upscale(const core::Image& lowres, const QuantConfig& quant,
                      core::OpCounter* ops = nullptr) const;

  /// Analytic MAC count per low-resolution pixel for the full network with
  /// the given TCONV mode and foveal fraction (matches OpCounter totals up
  /// to border effects).
  double macs_per_lr_pixel(TconvMode mode, double foveal_fraction) const;

  const FsrcnnConfig& config() const { return config_; }

private:
  FsrcnnConfig config_;
  std::vector<ConvLayer> conv_layers_;
  TconvLayer deconv_;
};

/// End-to-end evaluation record used by the Table I bench and tests.
struct SrResult {
  double psnr_db = 0.0;
  std::uint64_t macs = 0;
  std::uint64_t interp_adds = 0;
};

/// Downscales `reference` 2x, super-resolves it back with `model`, and
/// reports PSNR against the reference plus op counts.
SrResult evaluate_sr(const Fsrcnn& model, const core::Image& reference,
                     const QuantConfig& quant, TconvMode mode,
                     const FovealRegion& fovea);

}  // namespace icsc::approx
