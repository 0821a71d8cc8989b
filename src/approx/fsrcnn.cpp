#include "approx/fsrcnn.hpp"

#include <array>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace icsc::approx {

std::string FsrcnnConfig::name() const {
  return "FSRCNN(" + std::to_string(d) + "," + std::to_string(s) + "," +
         std::to_string(m) + ")";
}

void FsrcnnConfig::validate() const {
  const std::string where = "approx::FsrcnnConfig";
  core::require_at_least(where, "d", d, 1.0);
  core::require_at_least(where, "s", s, 1.0);
  core::require_at_least(where, "m", m, 0.0);
  core::require_at_least(where, "detail_scale", detail_scale, 0.0);
}

namespace {

/// 1-D polyphase interpolation profile for stride-2 zero-insertion TCONV,
/// centred in a 9-tap window.
std::array<float, 9> upsampler_profile(FsrcnnConfig::Upsampler kind) {
  std::array<float, 9> prof{};
  prof[4] = 1.0F;
  switch (kind) {
    case FsrcnnConfig::Upsampler::kTent:
      prof[3] = prof[5] = 0.5F;
      break;
    case FsrcnnConfig::Upsampler::kCatmullRom:
      prof[3] = prof[5] = 9.0F / 16.0F;
      prof[1] = prof[7] = -1.0F / 16.0F;
      break;
  }
  return prof;
}

void fill_detail(core::TensorF& weights, core::Rng& rng, double scale) {
  for (auto& w : weights.data()) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
}

}  // namespace

Fsrcnn::Fsrcnn(const FsrcnnConfig& config) : config_(config) {
  config.validate();
  core::Rng rng(config.seed);
  const auto d = static_cast<std::size_t>(config.d);
  const auto s = static_cast<std::size_t>(config.s);

  // Feature extraction: 5x5, 1 -> d. Channel 0 carries the image (delta
  // filter); the rest are small deterministic detail filters.
  ConvLayer feature;
  feature.weights = core::TensorF({d, 1, 5, 5});
  fill_detail(feature.weights, rng, config.detail_scale);
  for (std::size_t u = 0; u < 5; ++u) {
    for (std::size_t v = 0; v < 5; ++v) feature.weights(0, 0, u, v) = 0.0F;
  }
  feature.weights(0, 0, 2, 2) = 1.0F;
  feature.bias.assign(d, 0.0F);
  conv_layers_.push_back(std::move(feature));

  // Shrink: 1x1, d -> s.
  ConvLayer shrink;
  shrink.weights = core::TensorF({s, d, 1, 1});
  fill_detail(shrink.weights, rng, config.detail_scale * 0.5);
  for (std::size_t ic = 0; ic < d; ++ic) shrink.weights(0, ic, 0, 0) = 0.0F;
  shrink.weights(0, 0, 0, 0) = 1.0F;
  shrink.bias.assign(s, 0.0F);
  conv_layers_.push_back(std::move(shrink));

  // Mapping: m x (3x3, s -> s), identity on every channel plus detail.
  for (int layer = 0; layer < config.m; ++layer) {
    ConvLayer map;
    map.weights = core::TensorF({s, s, 3, 3});
    fill_detail(map.weights, rng, config.detail_scale * 0.25);
    for (std::size_t c = 0; c < s; ++c) {
      for (std::size_t ic = 0; ic < s; ++ic) {
        for (std::size_t u = 0; u < 3; ++u) {
          for (std::size_t v = 0; v < 3; ++v) {
            if (ic == c) map.weights(c, ic, u, v) = 0.0F;
          }
        }
      }
      map.weights(c, c, 1, 1) = 1.0F;
    }
    map.bias.assign(s, 0.0F);
    conv_layers_.push_back(std::move(map));
  }

  // Expand: 1x1, s -> d.
  ConvLayer expand;
  expand.weights = core::TensorF({d, s, 1, 1});
  fill_detail(expand.weights, rng, config.detail_scale * 0.5);
  for (std::size_t ic = 0; ic < s; ++ic) expand.weights(0, ic, 0, 0) = 0.0F;
  expand.weights(0, 0, 0, 0) = 1.0F;
  expand.bias.assign(d, 0.0F);
  conv_layers_.push_back(std::move(expand));

  // Deconvolution: 9x9 stride 2, d -> 1. Channel 0 is the separable
  // interpolator; the detail channels contribute faint texture.
  deconv_.weights = core::TensorF({d, 9, 9});
  fill_detail(deconv_.weights, rng, config.detail_scale * 0.05);
  const auto prof = upsampler_profile(config.upsampler);
  for (std::size_t u = 0; u < 9; ++u) {
    for (std::size_t v = 0; v < 9; ++v) {
      deconv_.weights(0, u, v) = prof[u] * prof[v];
    }
  }
  deconv_.bias = 0.0F;
}

core::Image Fsrcnn::upscale(const core::Image& lowres, const QuantConfig& quant,
                            TconvMode mode, const FovealRegion& fovea,
                            core::OpCounter* ops) const {
  quant.validate();
  FeatureMap act({1, lowres.height(), lowres.width()});
  for (std::size_t r = 0; r < lowres.height(); ++r) {
    for (std::size_t c = 0; c < lowres.width(); ++c) {
      act(0, r, c) = lowres.at(r, c);
    }
  }
  quantize_map(act, quant);
  core::Image out = apply_layer_stack(
      conv_layers_, deconv_, act,
      mode == TconvMode::kExact
          ? FovealRegion::full(lowres.height(), lowres.width())
          : fovea,
      quant, ops);
  out.clamp01();
  return out;
}

core::Image Fsrcnn::upscale(const core::Image& lowres, const QuantConfig& quant,
                            core::OpCounter* ops) const {
  return upscale(lowres, quant, TconvMode::kExact,
                 FovealRegion::full(lowres.height(), lowres.width()), ops);
}

double Fsrcnn::macs_per_lr_pixel(TconvMode mode, double foveal_fraction) const {
  const double d = config_.d;
  const double s = config_.s;
  const double m = config_.m;
  double macs = 25.0 * d        // feature extraction 5x5, 1 -> d
                + d * s         // shrink 1x1
                + m * 9.0 * s * s  // mapping 3x3, s -> s
                + s * d;        // expand 1x1
  const double phase = 81.0 * d;  // one TCONV phase: t^2 * Cin
  if (mode == TconvMode::kExact) {
    macs += 4.0 * phase;
  } else {
    macs += phase * (1.0 + 3.0 * foveal_fraction);
  }
  return macs;
}

SrResult evaluate_sr(const Fsrcnn& model, const core::Image& reference,
                     const QuantConfig& quant, TconvMode mode,
                     const FovealRegion& fovea) {
  const core::Image lowres = core::downscale2x_aligned(reference);
  core::OpCounter ops;
  const core::Image sr = model.upscale(lowres, quant, mode, fovea, &ops);
  SrResult result;
  result.psnr_db = core::psnr(reference, sr);
  result.macs = ops.count("mac");
  result.interp_adds = ops.count("interp_add");
  return result;
}

}  // namespace icsc::approx
