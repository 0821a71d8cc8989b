#include "approx/conv_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "approx/approx_arith.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "core/trace.hpp"

namespace icsc::approx {

ColumnInterior conv_interior(std::size_t width, std::size_t kernel) {
  ColumnInterior interior;
  const std::size_t pad = kernel / 2;
  // cc = c + v - pad in [0, w) for every v in [0, k): c >= pad and
  // c <= w - k + pad. Degenerate frames (w < k) have no interior at all.
  if (width < kernel) return interior;
  interior.begin = pad;
  interior.count = width - kernel + 1;
  return interior;
}

namespace {

/// Enumerates the valid (ic, u) source rows of output row `r` in reference
/// order, invoking fn(ic, u, rr) for each.
template <typename Fn>
void for_valid_rows(std::size_t cin, std::size_t h, std::size_t r,
                    std::size_t kernel, Fn&& fn) {
  const auto pad = static_cast<std::ptrdiff_t>(kernel / 2);
  for (std::size_t ic = 0; ic < cin; ++ic) {
    for (std::size_t u = 0; u < kernel; ++u) {
      const std::ptrdiff_t rr = static_cast<std::ptrdiff_t>(r + u) - pad;
      if (rr < 0 || rr >= static_cast<std::ptrdiff_t>(h)) continue;
      fn(ic, u, static_cast<std::size_t>(rr));
    }
  }
}

}  // namespace

void build_conv_row_panel(const core::TensorF& input, std::size_t r,
                          std::size_t kernel, ConvRowPanel& panel) {
  const std::size_t cin = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t pad = kernel / 2;
  panel.interior = conv_interior(w, kernel);
  panel.taps = 0;
  panel.data.clear();
  panel.tap_flat.clear();
  if (panel.interior.count == 0) return;
  const std::size_t cols = panel.interior.count;
  for_valid_rows(cin, h, r, kernel, [&](std::size_t ic, std::size_t u,
                                        std::size_t rr) {
    // One panel row per horizontal tap v: the source row shifted so that
    // column c of the panel is input(ic, rr, begin + c + v - pad). Every
    // interior column's taps are in-bounds by construction.
    const float* src = &input(ic, rr, 0);
    for (std::size_t v = 0; v < kernel; ++v) {
      const std::size_t shift = panel.interior.begin + v - pad;
      panel.data.resize(panel.data.size() + cols);
      std::memcpy(panel.data.data() + panel.taps * cols, src + shift,
                  cols * sizeof(float));
      panel.tap_flat.push_back(
          static_cast<std::uint32_t>((ic * kernel + u) * kernel + v));
      ++panel.taps;
    }
  });
  // Tap-row pointers for the whole-panel SIMD dot; `data` has its final
  // size here, so the pointers stay valid until the next rebuild.
  panel.row_ptrs.resize(panel.taps);
  for (std::size_t t = 0; t < panel.taps; ++t) {
    panel.row_ptrs[t] = panel.data.data() + t * cols;
  }
}

void conv_panel_dot_f32(ConvRowPanel& panel, const float* w_flat,
                        double* acc) {
  const std::size_t cols = panel.interior.count;
  panel.tap_w.resize(panel.taps);
  for (std::size_t t = 0; t < panel.taps; ++t) {
    panel.tap_w[t] = static_cast<double>(w_flat[panel.tap_flat[t]]);
  }
  // Columns are independent accumulators: the SIMD lanes span columns
  // while each acc[c] still sees taps in reference order, one IEEE
  // multiply + add per element (no FMA), so results stay bit-identical
  // to the scalar oracle under every dispatched ISA. The whole-panel
  // primitive keeps the accumulator tile in registers across taps.
  core::simd::tap_panel_axpy_f32_f64(panel.row_ptrs.data(),
                                     panel.tap_w.data(), panel.taps, acc,
                                     cols);
}

void build_qconv_row_panel(const std::int32_t* q_input, std::size_t cin,
                           std::size_t h, std::size_t w, std::size_t r,
                           std::size_t kernel, QConvRowPanel& panel) {
  const std::size_t pad = kernel / 2;
  panel.interior = conv_interior(w, kernel);
  panel.taps = 0;
  panel.data.clear();
  panel.tap_flat.clear();
  if (panel.interior.count == 0) return;
  const std::size_t cols = panel.interior.count;
  for_valid_rows(cin, h, r, kernel, [&](std::size_t ic, std::size_t u,
                                        std::size_t rr) {
    const std::int32_t* src = q_input + (ic * h + rr) * w;
    for (std::size_t v = 0; v < kernel; ++v) {
      const std::size_t shift = panel.interior.begin + v - pad;
      panel.data.resize(panel.data.size() + cols);
      std::memcpy(panel.data.data() + panel.taps * cols, src + shift,
                  cols * sizeof(std::int32_t));
      panel.tap_flat.push_back(
          static_cast<std::uint32_t>((ic * kernel + u) * kernel + v));
      ++panel.taps;
    }
  });
}

void qconv_panel_dot(const QConvRowPanel& panel, const std::int32_t* w_flat,
                     const ApproxArithConfig& arith, std::int64_t* acc) {
  const std::size_t cols = panel.interior.count;
  const int loa_bits =
      arith.adder == ApproxArithConfig::Adder::kLoa ? arith.loa_bits : 0;
  for (std::size_t t = 0; t < panel.taps; ++t) {
    const std::int32_t b = w_flat[panel.tap_flat[t]];
    const std::int32_t* row = panel.data.data() + t * cols;
    switch (arith.multiplier) {
      case ApproxArithConfig::Multiplier::kExact:
        core::simd::qtap_exact(row, b, loa_bits, acc, cols);
        break;
      case ApproxArithConfig::Multiplier::kTruncated:
        core::simd::qtap_truncated(row, b, arith.truncated_bits, loa_bits,
                                   acc, cols);
        break;
      case ApproxArithConfig::Multiplier::kMitchell:
        for (std::size_t c = 0; c < cols; ++c) {
          const std::int64_t term = mitchell_mul(row[c], b);
          acc[c] = loa_bits > 0 ? loa_add(acc[c], term, loa_bits)
                                : acc[c] + term;
        }
        break;
    }
  }
}

Q16Pad conv_q16_pad(std::size_t kernel) {
  Q16Pad pad;
  pad.top = pad.left = kernel / 2;
  // A 0 x 0 kernel has no taps and reads no border.
  pad.bottom = pad.right = kernel > 0 ? kernel - 1 - kernel / 2 : 0;
  return pad;
}

void Q16Planes::reset(std::size_t channels_in, std::size_t h_in,
                      std::size_t w_in, const Q16Pad& pad_in) {
  channels = channels_in;
  h = h_in;
  w = w_in;
  pad = pad_in;
  rows = pad.top + h + pad.bottom;
  stride = pad.left + w + pad.right;
  max_abs = 0;
  data.assign(2 * pairs() * rows * stride, 0);
}

void Q16Planes::fill_border() {
  if (!pad.replicate || w == 0) return;
  for (std::size_t p = 0; p < pairs(); ++p) {
    for (std::size_t r = pad.top; r < pad.top + h; ++r) {
      std::int16_t* row_data = row(p, r);
      const std::int16_t* first = row_data + 2 * pad.left;
      const std::int16_t* last = first + 2 * (w - 1);
      for (std::size_t c = 0; c < pad.left; ++c) {
        std::memcpy(row_data + 2 * c, first, 2 * sizeof(std::int16_t));
      }
      for (std::size_t c = pad.left + w; c < stride; ++c) {
        std::memcpy(row_data + 2 * c, last, 2 * sizeof(std::int16_t));
      }
    }
  }
}

bool q16_supported(const QuantConfig& config) {
  return config.enabled &&
         config.activation_int_bits + config.activation_frac_bits <= 15 &&
         config.weight_int_bits + config.weight_frac_bits <= 15;
}

namespace {

/// The signed (int_bits + frac_bits)-bit grid of one Q format.
struct QGrid {
  double scale;  // 2^frac_bits
  double limit;  // 2^(int_bits + frac_bits)

  QGrid(int int_bits, int frac_bits)
      : scale(std::ldexp(1.0, frac_bits)),
        limit(std::ldexp(1.0, int_bits + frac_bits)) {}

  /// Raw value of `v`, or false when `v` is off the grid. NaN fails the
  /// range test.
  bool raw(double v, std::int32_t& out) const {
    const double scaled = v * scale;
    if (!(scaled >= -limit && scaled < limit)) return false;
    out = static_cast<std::int32_t>(scaled);
    return static_cast<double>(out) == scaled;
  }
};

}  // namespace

bool pack_q16(const FeatureMap& input, const QuantConfig& config,
              const Q16Pad& pad, Q16Planes& planes) {
  if (!q16_supported(config)) return false;
  const std::size_t channels = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  planes.reset(channels, h, w, pad);
  const QGrid grid(config.activation_int_bits, config.activation_frac_bits);
  int peak = 0;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t r = 0; r < h; ++r) {
      const float* src = &input(ch, r, 0);
      std::int16_t* dst =
          planes.row(ch / 2, pad.top + r) + 2 * pad.left + ch % 2;
      bool on_grid = true;
      for (std::size_t c = 0; c < w; ++c) {
        std::int32_t raw = 0;
        on_grid &= grid.raw(src[c], raw);
        dst[2 * c] = static_cast<std::int16_t>(raw);
        peak = std::max(peak, raw < 0 ? -raw : raw);
      }
      if (!on_grid) return false;
    }
  }
  planes.max_abs = peak;
  planes.fill_border();
  return true;
}

FeatureMap unpack_q16(const Q16Planes& planes, const QuantConfig& config) {
  FeatureMap out({planes.channels, planes.h, planes.w});
  const float scale =
      std::ldexp(1.0F, -config.activation_frac_bits);  // exact: raw < 2^15
  for (std::size_t ch = 0; ch < planes.channels; ++ch) {
    for (std::size_t r = 0; r < planes.h; ++r) {
      const std::int16_t* src = planes.row(ch / 2, planes.pad.top + r) +
                                2 * planes.pad.left + ch % 2;
      float* dst = &out(ch, r, 0);
      for (std::size_t c = 0; c < planes.w; ++c) {
        dst[c] = static_cast<float>(src[2 * c]) * scale;
      }
    }
  }
  return out;
}

std::size_t q16_flush_taps(std::size_t taps, std::int64_t max_a,
                           std::int64_t max_w, std::int64_t max_bias) {
  // Each tap adds two int16 products per lane: one per channel of a pair.
  const std::int64_t per_tap = 2 * max_a * max_w;  // <= 2^31
  const double sum_bound =
      static_cast<double>(max_bias) +
      static_cast<double>(taps) * static_cast<double>(per_tap);
  if (sum_bound >= 0x1p51) return 0;
  if (per_tap == 0) return std::max<std::size_t>(taps, 1);
  return static_cast<std::size_t>(std::int64_t{INT32_MAX} / per_tap);
}

bool q16_weights_raw(const core::TensorF& weights, const QuantConfig& config,
                     std::vector<std::int16_t>& raw,
                     std::int64_t& max_abs) {
  core::TensorF q = weights;
  const auto data = q.data();
  core::simd::quantize_fixed_f32(data.data(), data.size(),
                                 config.weight_int_bits,
                                 config.weight_frac_bits);
  const QGrid grid(config.weight_int_bits, config.weight_frac_bits);
  raw.resize(data.size());
  max_abs = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::int32_t value = 0;
    if (!grid.raw(data[i], value)) return false;
    raw[i] = static_cast<std::int16_t>(value);
    max_abs = std::max<std::int64_t>(max_abs, value < 0 ? -value : value);
  }
  return true;
}

bool plan_q16_conv(const ConvLayer& layer, const QuantConfig& config,
                   Q16ConvPlan& plan) {
  if (!q16_supported(config)) return false;
  const std::size_t cin = layer.in_channels();
  plan.cout = layer.out_channels();
  plan.k = layer.kernel();
  plan.relu = layer.relu;
  const std::size_t pairs = (cin + 1) / 2;
  const std::size_t kk = plan.k * plan.k;
  plan.taps = pairs * kk;
  // A bias is on the accumulator grid when it is a multiple of
  // 2^-(af + wf) small enough for the sum bound.
  const int acc_frac = config.activation_frac_bits + config.weight_frac_bits;
  plan.bias.assign(plan.cout, 0);
  plan.max_abs_bias = 0;
  for (std::size_t oc = 0; oc < layer.bias.size() && oc < plan.cout; ++oc) {
    const double scaled = std::ldexp(double{layer.bias[oc]}, acc_frac);
    if (!(std::abs(scaled) < 0x1p52) || scaled != std::floor(scaled)) {
      return false;
    }
    plan.bias[oc] = static_cast<std::int64_t>(scaled);
    plan.max_abs_bias = std::max(plan.max_abs_bias, std::abs(plan.bias[oc]));
  }
  std::vector<std::int16_t> raw;
  if (!q16_weights_raw(layer.weights, config, raw, plan.max_abs_w)) {
    return false;
  }
  // [cout][cin][u][v] -> [cout][pair][u][v] (lo, hi): channel ic is half
  // ic % 2 of pair ic / 2; an odd cin leaves the last partner weight 0.
  plan.weights.assign(2 * plan.cout * plan.taps, 0);
  for (std::size_t oc = 0; oc < plan.cout; ++oc) {
    for (std::size_t ic = 0; ic < cin; ++ic) {
      for (std::size_t uv = 0; uv < kk; ++uv) {
        const std::size_t tap = (ic / 2) * kk + uv;
        plan.weights[2 * (oc * plan.taps + tap) + ic % 2] =
            raw[(oc * cin + ic) * kk + uv];
      }
    }
  }
  return true;
}

namespace {

/// Shared body of both run_q16_conv overloads: rows fan out over the pool;
/// each worker points one panel of tap rows into the padded planes and
/// runs blocks of kMaddMaxOuts output channels through madd_panel_i16, then
/// hands `store(oc, outs, r, acc)` the block's int64 sums ([outs][w]).
/// `store` returns the largest |raw| it wrote.
template <typename Store>
bool run_q16_conv_rows(const Q16ConvPlan& plan, const Q16Planes& in,
                       std::int64_t& max_abs, Store&& store) {
  const std::size_t flush = q16_flush_taps(plan.taps, in.max_abs,
                                           plan.max_abs_w, plan.max_abs_bias);
  if (flush == 0) return false;
  const std::size_t h = in.h;
  const std::size_t w = in.w;
  const std::size_t k = plan.k;
  constexpr std::size_t kOuts = core::simd::kMaddMaxOuts;
  std::vector<std::int64_t> row_peak(h, 0);
  core::parallel_for(0, h, 1, [&](std::size_t begin, std::size_t end) {
    std::vector<const std::int16_t*> taps(plan.taps);
    core::aligned_vector<std::int64_t> acc(kOuts * w);
    for (std::size_t r = begin; r < end; ++r) {
      // Frame row r sits at padded row r + k/2, so tap row u of output row
      // r is padded row r + u, and tap column v of output column c padded
      // column c + v.
      std::size_t t = 0;
      for (std::size_t p = 0; p < in.pairs(); ++p) {
        for (std::size_t u = 0; u < k; ++u) {
          const std::int16_t* src = in.row(p, r + u);
          for (std::size_t v = 0; v < k; ++v) taps[t++] = src + 2 * v;
        }
      }
      std::int64_t peak = 0;
      for (std::size_t oc = 0; oc < plan.cout; oc += kOuts) {
        const std::size_t outs = std::min(kOuts, plan.cout - oc);
        for (std::size_t o = 0; o < outs; ++o) {
          std::fill_n(acc.data() + o * w, w, plan.bias[oc + o]);
        }
        core::simd::madd_panel_i16(taps.data(),
                                   plan.weights.data() + 2 * oc * plan.taps,
                                   plan.taps, outs, flush, acc.data(), w, w);
        peak = std::max(peak, store(oc, outs, r, acc.data()));
      }
      row_peak[r] = peak;
    }
  });
  max_abs = 0;
  for (const std::int64_t p : row_peak) max_abs = std::max(max_abs, p);
  ICSC_TRACE_COUNT("conv.int16_layers", 1);
  return true;
}

}  // namespace

bool run_q16_conv(const Q16ConvPlan& plan, const Q16Planes& in,
                  const QuantConfig& config, Q16Planes& out) {
  const double scale = std::ldexp(
      1.0, -(config.activation_frac_bits + config.weight_frac_bits));
  const std::size_t w = in.w;
  std::int64_t max_abs = 0;
  // Output channels oc and oc + 1 share a plane; blocks start at multiples
  // of kMaddMaxOuts, so they hold whole pairs, the last one perhaps
  // without its odd partner (written as 0).
  const bool ran = run_q16_conv_rows(
      plan, in, max_abs,
      [&](std::size_t oc, std::size_t outs, std::size_t r,
          const std::int64_t* acc) {
        int peak = 0;
        for (std::size_t o = 0; o < outs; o += 2) {
          const std::int64_t* lo = acc + o * w;
          peak = std::max(
              peak, core::simd::requantize_pair_q16(
                        lo, o + 1 < outs ? lo + w : nullptr, w, scale,
                        plan.relu, config.activation_int_bits,
                        config.activation_frac_bits,
                        out.row((oc + o) / 2, out.pad.top + r) +
                            2 * out.pad.left));
        }
        return std::int64_t{peak};
      });
  if (!ran) return false;
  out.max_abs = static_cast<int>(max_abs);
  out.fill_border();
  return true;
}

bool run_q16_conv(const Q16ConvPlan& plan, const Q16Planes& in,
                  const QuantConfig& config, FeatureMap& out) {
  const double scale = std::ldexp(
      1.0, -(config.activation_frac_bits + config.weight_frac_bits));
  const std::size_t w = in.w;
  std::int64_t max_abs = 0;
  return run_q16_conv_rows(
      plan, in, max_abs,
      [&](std::size_t oc, std::size_t outs, std::size_t r,
          const std::int64_t* acc) {
        // The f64 engine's store: the exact sum, ReLU'd, rounded to float.
        for (std::size_t o = 0; o < outs; ++o) {
          float* dst = &out(oc + o, r, 0);
          for (std::size_t c = 0; c < w; ++c) {
            const double a = static_cast<double>(acc[o * w + c]) * scale;
            dst[c] = static_cast<float>(plan.relu ? std::max(0.0, a) : a);
          }
        }
        return std::int64_t{0};
      });
}

}  // namespace icsc::approx
