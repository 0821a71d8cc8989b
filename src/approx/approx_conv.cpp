#include "approx/approx_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "approx/conv_kernels.hpp"
#include "core/error.hpp"
#include "core/image.hpp"
#include "core/parallel.hpp"

namespace icsc::approx {

double ApproxArithConfig::energy_factor() const {
  double mul_factor = 1.0;
  switch (multiplier) {
    case Multiplier::kExact: break;
    case Multiplier::kTruncated:
      mul_factor = truncated_mul_energy_factor(truncated_bits, 32);
      break;
    case Multiplier::kMitchell:
      mul_factor = mitchell_mul_energy_factor();
      break;
  }
  double add_factor = 1.0;
  if (adder == Adder::kLoa) add_factor = loa_energy_factor(loa_bits, 32);
  return 0.8 * mul_factor + 0.2 * add_factor;
}

void ApproxArithConfig::validate() const {
  const std::string where = "approx::ApproxArithConfig";
  for (const auto& [field, bits] :
       {std::pair{"truncated_bits", truncated_bits},
        std::pair{"loa_bits", loa_bits}}) {
    core::require_at_least(where, field, bits, 0.0);
    if (bits > 63) {
      throw core::Error(where, std::string(field) + " must be <= 63",
                        "got " + std::to_string(bits));
    }
  }
}

namespace {

std::int32_t to_raw(float value, int int_bits, int frac_bits) {
  const double scale = static_cast<double>(1 << frac_bits);
  const double raw_max =
      static_cast<double>((1ll << (int_bits + frac_bits)) - 1);
  double scaled = std::round(static_cast<double>(value) * scale);
  scaled = std::clamp(scaled, -raw_max - 1.0, raw_max);
  return static_cast<std::int32_t>(scaled);
}

/// Everything both datapaths share: pre-quantised integer operands and the
/// configured multiplier/adder chain. Integer operands: activations Qa,
/// weights Qw; products carry a_frac + w_frac fractional bits.
struct QConvContext {
  const ConvLayer& layer;
  const QuantConfig& quant;
  const ApproxArithConfig& arith;
  int out_shift;     // back to activation scale
  double act_scale;
  std::vector<std::int32_t> q_weights;
  std::vector<std::int32_t> q_input;

  QConvContext(const ConvLayer& layer_in, const FeatureMap& input,
               const QuantConfig& quant_in, const ApproxArithConfig& arith_in)
      : layer(layer_in),
        quant(quant_in),
        arith(arith_in),
        out_shift(quant_in.weight_frac_bits),
        act_scale(static_cast<double>(1 << quant_in.activation_frac_bits)),
        q_weights(layer_in.weights.numel()),
        q_input(input.numel()) {
    for (std::size_t i = 0; i < q_weights.size(); ++i) {
      q_weights[i] = to_raw(layer.weights[i], quant.weight_int_bits,
                            quant.weight_frac_bits);
    }
    for (std::size_t i = 0; i < q_input.size(); ++i) {
      q_input[i] = to_raw(input[i], quant.activation_int_bits,
                          quant.activation_frac_bits);
    }
  }

  std::int64_t mul(std::int32_t a, std::int32_t b) const {
    switch (arith.multiplier) {
      case ApproxArithConfig::Multiplier::kExact:
        return static_cast<std::int64_t>(a) * b;
      case ApproxArithConfig::Multiplier::kTruncated:
        return truncated_mul(a, b, arith.truncated_bits);
      case ApproxArithConfig::Multiplier::kMitchell:
        return mitchell_mul(a, b);
    }
    return 0;
  }

  std::int64_t add(std::int64_t acc, std::int64_t term) const {
    if (arith.adder == ApproxArithConfig::Adder::kLoa) {
      return loa_add(acc, term, arith.loa_bits);
    }
    return acc + term;
  }

  std::int64_t bias_raw(std::size_t oc) const {
    return layer.bias.empty()
               ? 0
               : static_cast<std::int64_t>(
                     to_raw(layer.bias[oc], quant.activation_int_bits,
                            quant.activation_frac_bits))
                     << out_shift;
  }

  /// The original per-element operator chain, shared by the reference path
  /// and the fast path's border columns.
  std::int64_t scalar_element(std::size_t h, std::size_t w, std::size_t oc,
                              std::size_t r, std::size_t c) const {
    const std::size_t cin = layer.in_channels();
    const std::size_t k = layer.kernel();
    const auto pad = static_cast<std::ptrdiff_t>(k / 2);
    std::int64_t acc = bias_raw(oc);
    for (std::size_t ic = 0; ic < cin; ++ic) {
      for (std::size_t u = 0; u < k; ++u) {
        const std::ptrdiff_t rr = static_cast<std::ptrdiff_t>(r + u) - pad;
        if (rr < 0 || rr >= static_cast<std::ptrdiff_t>(h)) continue;
        for (std::size_t v = 0; v < k; ++v) {
          const std::ptrdiff_t cc = static_cast<std::ptrdiff_t>(c + v) - pad;
          if (cc < 0 || cc >= static_cast<std::ptrdiff_t>(w)) continue;
          const std::int32_t a =
              q_input[(ic * h + static_cast<std::size_t>(rr)) * w +
                      static_cast<std::size_t>(cc)];
          const std::int32_t b = q_weights[((oc * cin + ic) * k + u) * k + v];
          acc = add(acc, mul(a, b));
        }
      }
    }
    return acc;
  }

  float finish(std::int64_t acc) const {
    std::int64_t result = acc >> out_shift;  // back to Qa scale
    if (layer.relu) result = std::max<std::int64_t>(0, result);
    return static_cast<float>(static_cast<double>(result) / act_scale);
  }
};

/// The preconditions of both datapaths: the approximate operators are
/// integer hardware with valid widths, and `input` must be
/// [in_channels, h, w].
void require_integer_datapath(const ConvLayer& layer, const FeatureMap& input,
                              const QuantConfig& quant,
                              const ApproxArithConfig& arith,
                              const char* where) {
  quant.validate();
  arith.validate();
  if (!quant.enabled) {
    throw core::Error(where, "approximate units are integer hardware",
                      "QuantConfig::enabled is false");
  }
  require_feature_map(input, layer.in_channels(), where);
}

void book_approx_macs(std::size_t cout, std::size_t h, std::size_t w,
                      std::size_t k, std::size_t cin, core::OpCounter* ops) {
  if (ops) {
    ops->add("approx_mac",
             static_cast<std::uint64_t>(cout) * h * w * k * k * cin);
  }
}

}  // namespace

FeatureMap apply_approx(const ConvLayer& layer, const FeatureMap& input,
                        const QuantConfig& quant,
                        const ApproxArithConfig& arith,
                        core::OpCounter* ops) {
  require_integer_datapath(layer, input, quant, arith, "approx::apply_approx");
  const std::size_t cin = layer.in_channels();
  const std::size_t cout = layer.out_channels();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t k = layer.kernel();
  const QConvContext ctx(layer, input, quant, arith);

  FeatureMap out({cout, h, w});
  // Rows fan out over the pool; each worker packs the quantised im2col
  // panel once per row and reuses it across output channels. Taps are
  // combined through the configured multiplier/adder in the reference
  // (ic, u, v) order per output, so even the non-associative approximate
  // operators produce bit-identical results vs apply_approx_reference.
  core::parallel_for(0, h, 1, [&](std::size_t begin, std::size_t end) {
    QConvRowPanel panel;
    core::aligned_vector<std::int64_t> acc;
    for (std::size_t r = begin; r < end; ++r) {
      build_qconv_row_panel(ctx.q_input.data(), cin, h, w, r, k, panel);
      const std::size_t c_lo = panel.interior.begin;
      const std::size_t c_hi = c_lo + panel.interior.count;
      const std::size_t cols = panel.interior.count;
      for (std::size_t oc = 0; oc < cout; ++oc) {
        if (!panel.empty()) {
          acc.assign(cols, ctx.bias_raw(oc));
          const std::int32_t* w_flat = ctx.q_weights.data() + oc * cin * k * k;
          qconv_panel_dot(panel, w_flat, arith, acc.data());
          for (std::size_t c = c_lo; c < c_hi; ++c) {
            out(oc, r, c) = ctx.finish(acc[c - c_lo]);
          }
        }
        for (std::size_t c = 0; c < w; ++c) {
          if (c >= c_lo && c < c_hi && !panel.empty()) continue;
          out(oc, r, c) = ctx.finish(ctx.scalar_element(h, w, oc, r, c));
        }
      }
    }
  });
  book_approx_macs(cout, h, w, k, cin, ops);
  quantize_map(out, quant);
  return out;
}

FeatureMap apply_approx_reference(const ConvLayer& layer,
                                  const FeatureMap& input,
                                  const QuantConfig& quant,
                                  const ApproxArithConfig& arith,
                                  core::OpCounter* ops) {
  require_integer_datapath(layer, input, quant, arith,
                           "approx::apply_approx_reference");
  const std::size_t cin = layer.in_channels();
  const std::size_t cout = layer.out_channels();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t k = layer.kernel();
  const QConvContext ctx(layer, input, quant, arith);

  FeatureMap out({cout, h, w});
  // Independent (output channel, row) pairs fan out over the pool; the
  // integer arithmetic chain per element is untouched, so approximate
  // multiplier/adder behaviour is bit-exact vs the serial loop.
  core::parallel_for(0, cout * h, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const std::size_t oc = idx / h;
      const std::size_t r = idx % h;
      for (std::size_t c = 0; c < w; ++c) {
        out(oc, r, c) = ctx.finish(ctx.scalar_element(h, w, oc, r, c));
      }
    }
  });
  book_approx_macs(cout, h, w, k, cin, ops);
  quantize_map(out, quant);
  return out;
}

ApproxConvResult evaluate_approx_conv(const ApproxArithConfig& arith,
                                      std::size_t image_size,
                                      std::uint64_t seed) {
  arith.validate();
  const auto scene = core::make_scene(core::SceneKind::kNaturalComposite,
                                      image_size, image_size, seed);
  FeatureMap input({1, image_size, image_size});
  for (std::size_t r = 0; r < image_size; ++r) {
    for (std::size_t c = 0; c < image_size; ++c) {
      input(0, r, c) = scene.at(r, c);
    }
  }

  // A representative two-stage stack: 3x3 Gaussian smoothing into a 3x3
  // sharpening kernel (unsharp mask), both common in SR/vision pipelines.
  ConvLayer blur;
  blur.weights = core::TensorF({1, 1, 3, 3});
  const float g[3] = {0.25F, 0.5F, 0.25F};
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t v = 0; v < 3; ++v) blur.weights(0, 0, u, v) = g[u] * g[v];
  }
  blur.bias = {0.0F};
  blur.relu = false;

  ConvLayer sharpen;
  sharpen.weights = core::TensorF({1, 1, 3, 3});
  sharpen.weights(0, 0, 1, 1) = 1.8F;
  sharpen.weights(0, 0, 0, 1) = -0.2F;
  sharpen.weights(0, 0, 2, 1) = -0.2F;
  sharpen.weights(0, 0, 1, 0) = -0.2F;
  sharpen.weights(0, 0, 1, 2) = -0.2F;
  sharpen.bias = {0.0F};
  sharpen.relu = true;

  const QuantConfig q16;
  ApproxArithConfig exact;  // defaults: exact mul + exact add
  const auto ref = apply_approx(sharpen, apply_approx(blur, input, q16, exact),
                                q16, exact);
  const auto got = apply_approx(sharpen, apply_approx(blur, input, q16, arith),
                                q16, arith);

  core::Image ref_img(image_size, image_size), got_img(image_size, image_size);
  for (std::size_t r = 0; r < image_size; ++r) {
    for (std::size_t c = 0; c < image_size; ++c) {
      ref_img.at(r, c) = std::clamp(ref(0, r, c), 0.0F, 1.0F);
      got_img.at(r, c) = std::clamp(got(0, r, c), 0.0F, 1.0F);
    }
  }
  ApproxConvResult result;
  result.psnr_vs_exact_db = core::psnr(ref_img, got_img);
  result.energy_factor = arith.energy_factor();
  return result;
}

}  // namespace icsc::approx
