#include "approx/conv.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "approx/conv_kernels.hpp"
#include "core/aligned.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "core/trace.hpp"

namespace icsc::approx {

void require_feature_map(const FeatureMap& input, std::size_t channels,
                         const char* where) {
  if (input.rank() != 3 || input.dim(0) != channels) {
    throw core::Error(where, "input must be [in_channels, h, w]",
                      "got " + core::shape_to_string(input.shape()) +
                          ", in_channels " + std::to_string(channels));
  }
}

namespace {

float quantize_runtime(float v, int int_bits, int frac_bits) {
  const double scale = static_cast<double>(std::int64_t{1} << frac_bits);
  const double raw_max =
      static_cast<double>((std::int64_t{1} << (int_bits + frac_bits)) - 1);
  const double raw_min = -raw_max - 1.0;
  double scaled = static_cast<double>(v) * scale;
  scaled = scaled >= 0.0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
  scaled = std::clamp(scaled, raw_min, raw_max);
  return static_cast<float>(scaled / scale);
}

/// Weight-tensor twin of quantize_map (Q weight_int.weight_frac policy).
void quantize_weight_tensor(core::TensorF& w, const QuantConfig& config) {
  if (!config.enabled) return;
  const auto data = w.data();
  core::simd::quantize_fixed_f32(data.data(), data.size(),
                                 config.weight_int_bits,
                                 config.weight_frac_bits);
}

}  // namespace

void QuantConfig::validate() const {
  // Per-element quantisers call this, so the passing case allocates nothing.
  const std::int64_t activation_bits =
      std::int64_t{activation_int_bits} + activation_frac_bits;
  const std::int64_t weight_bits =
      std::int64_t{weight_int_bits} + weight_frac_bits;
  if (activation_int_bits >= 0 && activation_frac_bits >= 0 &&
      weight_int_bits >= 0 && weight_frac_bits >= 0 &&
      activation_bits <= 30 && weight_bits <= 30) {
    return;
  }
  const std::string where = "approx::QuantConfig";
  core::require_at_least(where, "activation_int_bits", activation_int_bits,
                         0.0);
  core::require_at_least(where, "activation_frac_bits", activation_frac_bits,
                         0.0);
  core::require_at_least(where, "weight_int_bits", weight_int_bits, 0.0);
  core::require_at_least(where, "weight_frac_bits", weight_frac_bits, 0.0);
  const auto require_width = [&where](const char* field, std::int64_t bits) {
    if (bits > 30) {
      throw core::Error(where, std::string(field) + " must be <= 30",
                        "got " + std::to_string(bits));
    }
  };
  require_width("activation_int_bits + activation_frac_bits",
                activation_bits);
  require_width("weight_int_bits + weight_frac_bits", weight_bits);
}

float QuantConfig::quantize_activation(float v) const {
  validate();
  if (!enabled) return v;
  return quantize_runtime(v, activation_int_bits, activation_frac_bits);
}

float QuantConfig::quantize_weight(float v) const {
  validate();
  if (!enabled) return v;
  return quantize_runtime(v, weight_int_bits, weight_frac_bits);
}

void quantize_map(FeatureMap& map, const QuantConfig& config) {
  config.validate();
  if (!config.enabled) return;
  // Whole-buffer quantisation runs on the SIMD lanes; every element is an
  // independent round/clamp, bit-identical to quantize_activation per
  // element under every dispatched ISA.
  const auto data = map.data();
  core::simd::quantize_fixed_f32(data.data(), data.size(),
                                 config.activation_int_bits,
                                 config.activation_frac_bits);
}

namespace {

/// The original scalar accumulation for one output element, shared by the
/// reference path and the fast path's border columns.
double conv_scalar_element(const FeatureMap& input,
                           const core::TensorF& q_weights, std::size_t oc,
                           std::size_t r, std::size_t c, double bias_term) {
  const std::size_t cin = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t k = q_weights.dim(2);
  const auto pad = static_cast<std::ptrdiff_t>(k / 2);
  double acc = bias_term;
  for (std::size_t ic = 0; ic < cin; ++ic) {
    for (std::size_t u = 0; u < k; ++u) {
      const std::ptrdiff_t rr = static_cast<std::ptrdiff_t>(r + u) - pad;
      if (rr < 0 || rr >= static_cast<std::ptrdiff_t>(h)) continue;
      for (std::size_t v = 0; v < k; ++v) {
        const std::ptrdiff_t cc = static_cast<std::ptrdiff_t>(c + v) - pad;
        if (cc < 0 || cc >= static_cast<std::ptrdiff_t>(w)) continue;
        acc += static_cast<double>(q_weights(oc, ic, u, v)) *
               input(ic, static_cast<std::size_t>(rr),
                     static_cast<std::size_t>(cc));
      }
    }
  }
  return acc;
}

void book_conv_macs(std::size_t cout, std::size_t h, std::size_t w,
                    std::size_t k, std::size_t cin, core::OpCounter* ops) {
  const std::uint64_t macs =
      static_cast<std::uint64_t>(cout) * h * w * k * k * cin;
  if (ops) {
    // The MAC array executes the full k*k*Cin loop per output element
    // regardless of padding (zero-padded operands still occupy a slot).
    ops->add("mac", macs);
  }
  ICSC_TRACE_COUNT("conv.macs", macs);
}

}  // namespace

FeatureMap ConvLayer::apply(const FeatureMap& input, const QuantConfig& config,
                            core::OpCounter* ops) const {
  ICSC_TRACE_SPAN("conv/apply");
  require_feature_map(input, in_channels(), "approx::ConvLayer::apply");
  config.validate();
  const std::size_t cin = in_channels();
  const std::size_t cout = out_channels();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t k = kernel();

  // Exact int16 MACs whenever the operands fit (conv_kernels.hpp).
  Q16ConvPlan plan;
  Q16Planes planes;
  if (plan_q16_conv(*this, config, plan) &&
      pack_q16(input, config, conv_q16_pad(k), planes)) {
    FeatureMap out({cout, h, w});
    if (run_q16_conv(plan, planes, config, out)) {
      book_conv_macs(cout, h, w, k, cin, ops);
      quantize_map(out, config);
      return out;
    }
  }

  core::TensorF q_weights = weights;
  quantize_weight_tensor(q_weights, config);

  FeatureMap out({cout, h, w});
  // Rows are independent; each worker packs the row's im2col panel once and
  // reuses it across every output channel. Interior columns go through the
  // register-blocked panel dot, border columns through the scalar element --
  // both accumulate taps in the reference (ic, u, v) order, so every output
  // is bit-exact vs apply_reference regardless of thread count.
  core::parallel_for(0, h, 1, [&](std::size_t begin, std::size_t end) {
    ConvRowPanel panel;
    core::aligned_vector<double> acc;
    for (std::size_t r = begin; r < end; ++r) {
      build_conv_row_panel(input, r, k, panel);
      const std::size_t c_lo = panel.interior.begin;
      const std::size_t c_hi = c_lo + panel.interior.count;
      for (std::size_t oc = 0; oc < cout; ++oc) {
        const double bias_term = bias.empty() ? 0.0 : bias[oc];
        if (!panel.empty()) {
          acc.assign(panel.interior.count, bias_term);
          conv_panel_dot_f32(panel, &q_weights(oc, 0, 0, 0), acc.data());
          for (std::size_t c = c_lo; c < c_hi; ++c) {
            const double a = relu ? std::max(0.0, acc[c - c_lo]) : acc[c - c_lo];
            out(oc, r, c) = static_cast<float>(a);
          }
        }
        for (std::size_t c = 0; c < w; ++c) {
          if (c >= c_lo && c < c_hi && !panel.empty()) continue;
          double a = conv_scalar_element(input, q_weights, oc, r, c, bias_term);
          if (relu) a = std::max(0.0, a);
          out(oc, r, c) = static_cast<float>(a);
        }
      }
    }
  });
  book_conv_macs(cout, h, w, k, cin, ops);
  quantize_map(out, config);
  return out;
}

FeatureMap ConvLayer::apply_reference(const FeatureMap& input,
                                      const QuantConfig& config,
                                      core::OpCounter* ops) const {
  ICSC_TRACE_SPAN("conv/apply_reference");
  require_feature_map(input, in_channels(),
                      "approx::ConvLayer::apply_reference");
  config.validate();
  const std::size_t cin = in_channels();
  const std::size_t cout = out_channels();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t k = kernel();

  core::TensorF q_weights = weights;
  quantize_weight_tensor(q_weights, config);

  FeatureMap out({cout, h, w});
  // Each (output channel, row) pair is independent; fan them out over the
  // pool. Every output element is computed by exactly one thread with the
  // same accumulation order as the serial loop, so results are bit-exact.
  core::parallel_for(0, cout * h, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const std::size_t oc = idx / h;
      const std::size_t r = idx % h;
      for (std::size_t c = 0; c < w; ++c) {
        double acc = conv_scalar_element(input, q_weights, oc, r, c,
                                         bias.empty() ? 0.0 : bias[oc]);
        if (relu) acc = std::max(0.0, acc);
        out(oc, r, c) = static_cast<float>(acc);
      }
    }
  });
  book_conv_macs(cout, h, w, k, cin, ops);
  quantize_map(out, config);
  return out;
}

FovealRegion FovealRegion::centered(std::size_t height, std::size_t width,
                                    double fraction) {
  FovealRegion region;
  region.center_row = static_cast<double>(height) / 2.0;
  region.center_col = static_cast<double>(width) / 2.0;
  const double area = fraction * static_cast<double>(height) *
                      static_cast<double>(width);
  region.radius = std::sqrt(std::max(0.0, area) / 3.14159265358979323846);
  return region;
}

FovealRegion FovealRegion::full(std::size_t height, std::size_t width) {
  FovealRegion region;
  region.center_row = static_cast<double>(height) / 2.0;
  region.center_col = static_cast<double>(width) / 2.0;
  region.radius = static_cast<double>(height + width);  // covers all corners
  return region;
}

namespace {

/// Computes output phase (p, q) of the zero-insertion TCONV at LR pixel
/// (i, j): sum over channels and kernel taps hitting even upsampled
/// coordinates. `off` centres the kernel.
double tconv_phase(const FeatureMap& input, const core::TensorF& k_weights,
                   std::size_t i, std::size_t j, int p, int q) {
  const std::size_t cin = input.dim(0);
  const int h = static_cast<int>(input.dim(1));
  const int w = static_cast<int>(input.dim(2));
  const std::size_t t = k_weights.dim(1);
  const int off = static_cast<int>(t - 1) / 2;
  double acc = 0.0;
  for (std::size_t u = 0; u < t; ++u) {
    const int y = 2 * static_cast<int>(i) + p + static_cast<int>(u) - off;
    if ((y & 1) != 0) continue;  // structural zero of the upsampled grid
    // Border policy: replicate the edge sample (the hardware line buffers
    // hold the last valid line), matching the interpolated path's clamping.
    const int src_r = std::clamp(y / 2, 0, h - 1);
    for (std::size_t v = 0; v < t; ++v) {
      const int x = 2 * static_cast<int>(j) + q + static_cast<int>(v) - off;
      if ((x & 1) != 0) continue;
      const int src_c = std::clamp(x / 2, 0, w - 1);
      for (std::size_t c = 0; c < cin; ++c) {
        acc += static_cast<double>(k_weights(c, u, v)) *
               input(c, static_cast<std::size_t>(src_r),
                     static_cast<std::size_t>(src_c));
      }
    }
  }
  return acc;
}

/// One surviving kernel tap after hoisting the parity filter and border
/// clamp out of the pixel loops: tap index and resolved source coordinate.
struct TconvTap {
  std::uint32_t tap = 0;  // u (row tables) or v (column tables)
  std::uint32_t src = 0;  // clamped source row/column
};

/// Per-phase tap tables for the zero-insertion TCONV. The structural-zero
/// parity test and the border clamp in tconv_phase depend only on
/// (i, p, u) for rows and (j, q, v) for columns, so they are evaluated
/// once per axis coordinate here instead of once per (pixel, tap).
/// Iterating a table walks the surviving taps in the same ascending
/// u (resp. v) order as the reference loops, so accumulation order -- and
/// therefore every output bit -- is unchanged.
struct TconvTapTables {
  std::size_t t = 0;
  // rows[p][i], cols[q][j]: flattened small vectors (at most ceil(t/2)
  // entries each) with a [start, end) index per coordinate.
  std::array<std::vector<TconvTap>, 2> row_taps, col_taps;
  std::array<std::vector<std::uint32_t>, 2> row_start, col_start;

  TconvTapTables(std::size_t cin, std::size_t h, std::size_t w,
                 std::size_t kernel) {
    (void)cin;
    t = kernel;
    const int off = static_cast<int>(t - 1) / 2;
    for (int p = 0; p < 2; ++p) {
      build_axis(row_taps[p], row_start[p], t, h, p, off);
      build_axis(col_taps[p], col_start[p], t, w, p, off);
    }
  }

  static void build_axis(std::vector<TconvTap>& taps,
                         std::vector<std::uint32_t>& start, std::size_t t,
                         std::size_t n, int phase, int off) {
    // reused for rows and columns: axis coordinate a, upsampled
    // y = 2a + phase + tap - off must be even and clamps to [0, n).
    start.assign(n + 1, 0);
    taps.clear();
    for (std::size_t a = 0; a < n; ++a) {
      start[a] = static_cast<std::uint32_t>(taps.size());
      for (std::size_t u = 0; u < t; ++u) {
        const int y = 2 * static_cast<int>(a) + phase +
                      static_cast<int>(u) - off;
        if ((y & 1) != 0) continue;
        const int src = std::clamp(y / 2, 0, static_cast<int>(n) - 1);
        taps.push_back({static_cast<std::uint32_t>(u),
                        static_cast<std::uint32_t>(src)});
      }
    }
    start[n] = static_cast<std::uint32_t>(taps.size());
  }
};

/// tconv_phase with the (i, p) / (j, q) tap lists precomputed: identical
/// tap visit order (ascending u, then ascending v, then channels), so the
/// double accumulator sees exactly the reference addition sequence.
double tconv_phase_blocked(const FeatureMap& input,
                           const core::TensorF& k_weights,
                           const TconvTapTables& tables, std::size_t i,
                           std::size_t j, int p, int q) {
  const std::size_t cin = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t t = tables.t;
  const auto& rows = tables.row_taps[p];
  const auto& cols = tables.col_taps[q];
  const std::uint32_t r_lo = tables.row_start[p][i];
  const std::uint32_t r_hi = tables.row_start[p][i + 1];
  const std::uint32_t c_lo = tables.col_start[q][j];
  const std::uint32_t c_hi = tables.col_start[q][j + 1];
  const float* wts = &k_weights(0, 0, 0);
  const float* in = &input(0, 0, 0);
  double acc = 0.0;
  for (std::uint32_t ri = r_lo; ri < r_hi; ++ri) {
    const std::size_t u = rows[ri].tap;
    const std::size_t src_r = rows[ri].src;
    for (std::uint32_t ci = c_lo; ci < c_hi; ++ci) {
      const std::size_t v = cols[ci].tap;
      const std::size_t base_w = u * t + v;       // + c * t * t per channel
      const std::size_t base_i = src_r * w + cols[ci].src;  // + c * h * w
      for (std::size_t c = 0; c < cin; ++c) {
        acc += static_cast<double>(wts[c * t * t + base_w]) *
               static_cast<double>(in[c * h * w + base_i]);
      }
    }
  }
  return acc;
}

/// Column geometry of one horizontal phase q after hoisting the parity
/// filter: the surviving v taps (ascending, shared by every column because
/// 2j never changes the parity of 2j + q + v - off) with their unclamped
/// source offsets, and the half-open j interval where no tap clamps at the
/// border. Outside [j_lo, j_hi) callers use tconv_phase_blocked.
struct TconvColPlan {
  std::vector<std::uint32_t> taps;  // surviving v, ascending
  std::vector<int> shift;           // src_c = j + shift for interior j
  std::size_t j_lo = 0, j_hi = 0;

  TconvColPlan(std::size_t t, std::size_t w, int q) {
    const int off = (static_cast<int>(t) - 1) / 2;
    int min_shift = 0, max_shift = 0;
    for (std::size_t v = 0; v < t; ++v) {
      const int x = q + static_cast<int>(v) - off;
      if ((x & 1) != 0) continue;  // structural zero of the upsampled grid
      const int s = x / 2;  // exact: x is even
      if (taps.empty()) {
        min_shift = max_shift = s;
      } else {
        min_shift = std::min(min_shift, s);
        max_shift = std::max(max_shift, s);
      }
      taps.push_back(static_cast<std::uint32_t>(v));
      shift.push_back(s);
    }
    if (taps.empty() || w == 0) return;
    const auto wi = static_cast<int>(w);
    const int lo = std::max(0, -min_shift);
    const int hi = std::min(wi - 1, wi - 1 - max_shift);
    if (lo > hi) return;
    j_lo = static_cast<std::size_t>(lo);
    j_hi = static_cast<std::size_t>(hi) + 1;
  }
};

/// Accumulates phase (p, q) over `count` clamp-free columns starting at
/// `j0` of output row `i` into acc (pre-zeroed): lanes span the
/// independent output columns while each column sees taps in the exact
/// reference (u, v, channel) order, so outputs match tconv_phase_blocked
/// bit for bit.
void tconv_phase_row(const FeatureMap& input, const core::TensorF& k_weights,
                     const TconvTapTables& tables, const TconvColPlan& plan,
                     std::size_t i, int p, std::size_t j0, std::size_t count,
                     double* acc) {
  const std::size_t cin = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t t = tables.t;
  const auto& rows = tables.row_taps[p];
  const std::uint32_t r_lo = tables.row_start[p][i];
  const std::uint32_t r_hi = tables.row_start[p][i + 1];
  const float* wts = &k_weights(0, 0, 0);
  const float* in = &input(0, 0, 0);
  // Gather the (u, v, channel) tap sequence once, then run the whole-panel
  // SIMD dot: per output column the accumulation order is exactly the
  // reference chain, but the accumulator tile stays in registers across
  // all taps instead of round-tripping through memory per tap.
  static thread_local std::vector<const float*> tap_rows;
  static thread_local core::aligned_vector<double> tap_w;
  tap_rows.clear();
  tap_w.clear();
  for (std::uint32_t ri = r_lo; ri < r_hi; ++ri) {
    const std::size_t u = rows[ri].tap;
    const std::size_t src_r = rows[ri].src;
    for (std::size_t vi = 0; vi < plan.taps.size(); ++vi) {
      const std::size_t v = plan.taps[vi];
      const auto src0 = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(j0) + plan.shift[vi]);
      for (std::size_t c = 0; c < cin; ++c) {
        tap_rows.push_back(in + c * h * w + src_r * w + src0);
        tap_w.push_back(static_cast<double>(wts[c * t * t + u * t + v]));
      }
    }
  }
  core::simd::tap_panel_axpy_f32_f64(tap_rows.data(), tap_w.data(),
                                     tap_rows.size(), acc, count);
}

/// The replicated border of integer HTCONV planes: the largest |column
/// shift| (x / 2 for a surviving x = q + v - off) of either phase q.
Q16Pad tconv_q16_pad(std::size_t t) {
  const int off = (static_cast<int>(t) - 1) / 2;
  Q16Pad pad;
  pad.replicate = true;
  for (int q = 0; q < 2; ++q) {
    for (int v = 0; v < static_cast<int>(t); ++v) {
      const int x = q + v - off;
      if ((x & 1) != 0) continue;
      pad.left = std::max(pad.left, static_cast<std::size_t>(std::abs(x / 2)));
    }
  }
  pad.right = pad.left;
  return pad;
}

/// A TconvLayer on the integer path: per output phase (p, q), index
/// 2p + q, the raw weight pairs in the order q16_phase_taps walks its
/// rows -- surviving u ascending, then surviving v ascending, then the
/// channel pair. The surviving taps of a phase are the same for every
/// pixel (2i and 2j never change a parity).
struct TconvQ16Plan {
  std::array<std::vector<std::int16_t>, 4> weights;
  std::int64_t max_abs_w = 0;
  std::size_t max_taps = 0;
};

bool plan_q16_tconv(const TconvLayer& layer, const QuantConfig& config,
                    TconvQ16Plan& plan) {
  if (!q16_supported(config)) return false;
  std::vector<std::int16_t> raw;
  if (!q16_weights_raw(layer.weights, config, raw, plan.max_abs_w)) {
    return false;
  }
  const std::size_t cin = layer.in_channels();
  const std::size_t t = layer.kernel();
  const int off = (static_cast<int>(t) - 1) / 2;
  plan.max_taps = 0;
  for (int p = 0; p < 2; ++p) {
    for (int q = 0; q < 2; ++q) {
      auto& wts = plan.weights[static_cast<std::size_t>(2 * p + q)];
      wts.clear();
      for (std::size_t u = 0; u < t; ++u) {
        if (((p + static_cast<int>(u) - off) & 1) != 0) continue;
        for (std::size_t v = 0; v < t; ++v) {
          if (((q + static_cast<int>(v) - off) & 1) != 0) continue;
          for (std::size_t c = 0; c < cin; c += 2) {
            wts.push_back(raw[(c * t + u) * t + v]);
            wts.push_back(c + 1 < cin ? raw[((c + 1) * t + u) * t + v] : 0);
          }
        }
      }
      plan.max_taps = std::max(plan.max_taps, wts.size() / 2);
    }
  }
  return true;
}

/// Tap rows of phase (p, q) for LR row i from LR column j0, in the plan's
/// weight order: the clamped source row of each surviving u, shifted by
/// each surviving v. The replicated border stands in for the column clamp.
void q16_phase_taps(const Q16Planes& planes, const TconvTapTables& tables,
                    const TconvColPlan& plan, std::size_t i, int p,
                    std::size_t j0, std::vector<const std::int16_t*>& taps) {
  taps.clear();
  const auto& rows = tables.row_taps[p];
  for (std::uint32_t ri = tables.row_start[p][i];
       ri < tables.row_start[p][i + 1]; ++ri) {
    for (const int shift : plan.shift) {
      const auto col = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(j0 + planes.pad.left) + shift);
      for (std::size_t c = 0; c < planes.pairs(); ++c) {
        taps.push_back(planes.row(c, rows[ri].src) + 2 * col);
      }
    }
  }
}

/// Per-worker scratch of an HTCONV pass.
struct TconvScratch {
  core::aligned_vector<double> acc;
  core::aligned_vector<std::int64_t> sums;
  std::vector<const std::int16_t*> taps;
};

/// HTCONV's two passes around a phase engine. span(scratch, out, i, p, q,
/// lo, hi) writes phase (p, q) of LR row i for LR columns [lo, hi) to
/// output row 2i + p, columns 2j + q. Pass 1 writes the even phase of every
/// LR pixel (always accurate); rows are independent, each writing only its
/// own even output row. Pass 2 writes the odd phases: accurate in the
/// fovea, interpolated outside. The fovea is a disc, so its intersection
/// with a row is one contiguous j interval; the interpolated flanks only
/// read even-phase outputs, which pass 1 fully wrote and pass 2 never
/// touches, so rows stay independent. Per-row foveal counts are reduced
/// serially for a deterministic sum.
template <typename Span>
core::Image foveated_passes(std::size_t h, std::size_t w,
                            std::uint64_t phase_macs,
                            const FovealRegion& fovea,
                            const QuantConfig& config, core::OpCounter* ops,
                            const Span& span) {
  core::Image out(2 * h, 2 * w);
  {
    ICSC_TRACE_SPAN("htconv/even_phase");
    core::parallel_for(0, h, 2, [&](std::size_t begin, std::size_t end) {
      TconvScratch scratch;
      for (std::size_t i = begin; i < end; ++i) {
        span(scratch, out, i, 0, 0, 0, w);
      }
    });
  }
  if (ops) ops->add("mac", phase_macs * h * w);

  std::vector<std::uint64_t> row_foveal(h, 0);
  ICSC_TRACE_SPAN("htconv/odd_phase");
  core::parallel_for(0, h, 2, [&](std::size_t begin, std::size_t end) {
    TconvScratch scratch;
    for (std::size_t i = begin; i < end; ++i) {
      std::size_t f_lo = w, f_hi = w;
      for (std::size_t j = 0; j < w; ++j) {
        if (fovea.contains(i, j)) {
          f_lo = j;
          break;
        }
      }
      if (f_lo < w) {
        f_hi = f_lo + 1;
        for (std::size_t j = w; j-- > f_lo + 1;) {
          if (fovea.contains(i, j)) {
            f_hi = j + 1;
            break;
          }
        }
        row_foveal[i] = f_hi - f_lo;
        span(scratch, out, i, 1, 0, f_lo, f_hi);
        span(scratch, out, i, 0, 1, f_lo, f_hi);
        span(scratch, out, i, 1, 1, f_lo, f_hi);
      }
      for (std::size_t j = 0; j < w; ++j) {
        if (j >= f_lo && j < f_hi) continue;
        // Bilinear interpolation of even-phase neighbours (Fig. 3 lines
        // 19-21), clamping at the frame border.
        const std::size_t i_next = std::min(i + 1, h - 1);
        const std::size_t j_next = std::min(j + 1, w - 1);
        const float e00 = out.at(2 * i, 2 * j);
        const float e10 = out.at(2 * i_next, 2 * j);
        const float e01 = out.at(2 * i, 2 * j_next);
        const float e11 = out.at(2 * i_next, 2 * j_next);
        out.at(2 * i + 1, 2 * j) = 0.5F * (e00 + e10);
        out.at(2 * i, 2 * j + 1) = 0.5F * (e00 + e01);
        out.at(2 * i + 1, 2 * j + 1) = 0.25F * (e00 + e01 + e10 + e11);
      }
    }
  });
  std::uint64_t foveal_pixels = 0;
  for (const std::uint64_t n : row_foveal) foveal_pixels += n;
  ICSC_TRACE_COUNT("htconv.foveal_pixels", foveal_pixels);
  ICSC_TRACE_COUNT("htconv.interpolated_pixels", h * w - foveal_pixels);
  if (ops) {
    ops->add("mac", 3 * phase_macs * foveal_pixels);
    const std::uint64_t interpolated = h * w - foveal_pixels;
    ops->add("interp_add", 8 * interpolated);
  }
  // The SIMD quantiser every layer uses; bit-identical to the reference's
  // per-pixel quantize_activation.
  quantize_map(out.tensor(), config);
  return out;
}

/// HTCONV on the integer path over `planes` (padded per tconv_q16_pad).
/// Each phase sum is exact, so bias + sum equals the f64 engine's value.
/// Returns false, writing nothing, when the layer's weights are off their
/// grid or q16_flush_taps leaves no tap per flush.
bool foveated_q16(const TconvLayer& layer, const Q16Planes& planes,
                  const FovealRegion& fovea, const QuantConfig& config,
                  core::OpCounter* ops, core::Image& out) {
  TconvQ16Plan plan;
  if (!plan_q16_tconv(layer, config, plan)) return false;
  const std::size_t flush =
      q16_flush_taps(plan.max_taps, planes.max_abs, plan.max_abs_w, 0);
  if (flush == 0) return false;
  const std::size_t h = planes.h;
  const std::size_t w = planes.w;
  const std::size_t t = layer.kernel();
  const TconvTapTables tables(planes.channels, h, w, t);
  const std::array<TconvColPlan, 2> col_plans = {TconvColPlan(t, w, 0),
                                                 TconvColPlan(t, w, 1)};
  const double bias = layer.bias;
  const double acc_scale = std::ldexp(
      1.0, -(config.activation_frac_bits + config.weight_frac_bits));
  out = foveated_passes(
      h, w, static_cast<std::uint64_t>(t) * t * planes.channels, fovea,
      config, ops,
      [&](TconvScratch& scratch, core::Image& img, std::size_t i, int p,
          int q, std::size_t lo, std::size_t hi) {
        if (lo >= hi) return;
        // Sum a window of whole vector tiles around [lo, hi) where the
        // frame allows: every column is clamp-free on the padded planes,
        // and the extra sums are dropped, so a foveal span never pays the
        // scalar tail.
        constexpr std::size_t kTile = core::simd::kMaddColumnTile;
        const std::size_t n = std::min(w, (hi - lo + kTile - 1) / kTile * kTile);
        const std::size_t first = std::min(lo, w - n);
        q16_phase_taps(planes, tables, col_plans[static_cast<std::size_t>(q)],
                       i, p, first, scratch.taps);
        scratch.sums.assign(n, 0);
        core::simd::madd_panel_i16(
            scratch.taps.data(),
            plan.weights[static_cast<std::size_t>(2 * p + q)].data(),
            scratch.taps.size(), 1, flush, scratch.sums.data(), n, n);
        const std::size_t row = 2 * i + (p != 0 ? 1 : 0);
        const std::size_t col_off = q != 0 ? 1 : 0;
        for (std::size_t j = lo; j < hi; ++j) {
          img.at(row, 2 * j + col_off) = static_cast<float>(
              bias + static_cast<double>(scratch.sums[j - first]) * acc_scale);
        }
      });
  ICSC_TRACE_COUNT("conv.int16_layers", 1);
  return true;
}

}  // namespace

core::Image TconvLayer::apply_exact(const FeatureMap& input,
                                    const QuantConfig& config,
                                    core::OpCounter* ops) const {
  require_feature_map(input, in_channels(), "approx::TconvLayer::apply_exact");
  return apply_foveated(input, FovealRegion::full(input.dim(1), input.dim(2)),
                        config, ops);
}

core::Image TconvLayer::apply_foveated(const FeatureMap& input,
                                       const FovealRegion& fovea,
                                       const QuantConfig& config,
                                       core::OpCounter* ops) const {
  ICSC_TRACE_SPAN("htconv/apply_foveated");
  require_feature_map(input, in_channels(),
                      "approx::TconvLayer::apply_foveated");
  config.validate();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t t = kernel();
  const std::size_t cin = in_channels();

  core::Image out;
  Q16Planes planes;
  if (pack_q16(input, config, tconv_q16_pad(t), planes) &&
      foveated_q16(*this, planes, fovea, config, ops, out)) {
    return out;
  }

  core::TensorF q_weights = weights;
  quantize_weight_tensor(q_weights, config);

  // Hoisted parity/clamp tap tables shared by both passes; the per-pixel
  // kernels then visit taps in the reference order (see TconvTapTables).
  const TconvTapTables tables(cin, h, w, t);
  // Column plans for the two horizontal phases: phases (0,0) and (1,0)
  // share q = 0, phases (0,1) and (1,1) share q = 1.
  const std::array<TconvColPlan, 2> col_plans = {TconvColPlan(t, w, 0),
                                                 TconvColPlan(t, w, 1)};

  // Computes phase (p, q) of row i for j in [lo, hi): the clamp-free span
  // through the SIMD row kernel, the clamped remainder per pixel.
  return foveated_passes(
      h, w, static_cast<std::uint64_t>(t) * t * cin,  // Fig. 3 loop bounds
      fovea, config, ops,
      [&](TconvScratch& scratch, core::Image& img, std::size_t i, int p,
          int q, std::size_t lo, std::size_t hi) {
        const TconvColPlan& plan = col_plans[static_cast<std::size_t>(q)];
        const std::size_t v_lo = std::max(lo, plan.j_lo);
        const std::size_t v_hi = std::min(hi, plan.j_hi);
        const std::size_t row = 2 * i + (p != 0 ? 1 : 0);
        const std::size_t col_off = q != 0 ? 1 : 0;
        if (v_lo < v_hi) {
          auto& acc = scratch.acc;
          acc.assign(v_hi - v_lo, 0.0);
          tconv_phase_row(input, q_weights, tables, plan, i, p, v_lo,
                          v_hi - v_lo, acc.data());
          for (std::size_t j = v_lo; j < v_hi; ++j) {
            img.at(row, 2 * j + col_off) =
                static_cast<float>(bias + acc[j - v_lo]);
          }
        }
        for (std::size_t j = lo; j < hi; ++j) {
          if (j >= v_lo && j < v_hi) continue;
          img.at(row, 2 * j + col_off) = static_cast<float>(
              bias + tconv_phase_blocked(input, q_weights, tables, i, j, p,
                                         q));
        }
      });
}

core::Image TconvLayer::apply_foveated_reference(const FeatureMap& input,
                                                 const FovealRegion& fovea,
                                                 const QuantConfig& config,
                                                 core::OpCounter* ops) const {
  ICSC_TRACE_SPAN("htconv/apply_foveated_reference");
  require_feature_map(input, in_channels(),
                      "approx::TconvLayer::apply_foveated_reference");
  config.validate();
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t t = kernel();
  const std::size_t cin = in_channels();

  core::TensorF q_weights = weights;
  quantize_weight_tensor(q_weights, config);

  core::Image out(2 * h, 2 * w);
  const std::uint64_t phase_macs =
      static_cast<std::uint64_t>(t) * t * cin;  // Fig. 3 loop bounds

  {
    core::parallel_for(0, h, 2, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          out.at(2 * i, 2 * j) = static_cast<float>(
              bias + tconv_phase(input, q_weights, i, j, 0, 0));
        }
      }
    });
  }
  if (ops) ops->add("mac", phase_macs * h * w);

  std::vector<std::uint64_t> row_foveal(h, 0);
  core::parallel_for(0, h, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < w; ++j) {
        if (fovea.contains(i, j)) {
          ++row_foveal[i];
          out.at(2 * i + 1, 2 * j) = static_cast<float>(
              bias + tconv_phase(input, q_weights, i, j, 1, 0));
          out.at(2 * i, 2 * j + 1) = static_cast<float>(
              bias + tconv_phase(input, q_weights, i, j, 0, 1));
          out.at(2 * i + 1, 2 * j + 1) = static_cast<float>(
              bias + tconv_phase(input, q_weights, i, j, 1, 1));
        } else {
          const std::size_t i_next = std::min(i + 1, h - 1);
          const std::size_t j_next = std::min(j + 1, w - 1);
          const float e00 = out.at(2 * i, 2 * j);
          const float e10 = out.at(2 * i_next, 2 * j);
          const float e01 = out.at(2 * i, 2 * j_next);
          const float e11 = out.at(2 * i_next, 2 * j_next);
          out.at(2 * i + 1, 2 * j) = 0.5F * (e00 + e10);
          out.at(2 * i, 2 * j + 1) = 0.5F * (e00 + e01);
          out.at(2 * i + 1, 2 * j + 1) = 0.25F * (e00 + e01 + e10 + e11);
        }
      }
    }
  });
  std::uint64_t foveal_pixels = 0;
  for (const std::uint64_t n : row_foveal) foveal_pixels += n;
  if (ops) {
    ops->add("mac", 3 * phase_macs * foveal_pixels);
    const std::uint64_t interpolated = h * w - foveal_pixels;
    ops->add("interp_add", 8 * interpolated);
  }

  if (config.enabled) {
    out.tensor().transform(
        [&config](float v) { return config.quantize_activation(v); });
  }
  return out;
}

core::Image apply_layer_stack(std::span<const ConvLayer> layers,
                              const TconvLayer& tconv,
                              const FeatureMap& input,
                              const FovealRegion& fovea,
                              const QuantConfig& config,
                              core::OpCounter* ops) {
  config.validate();
  require_feature_map(input,
                      layers.empty() ? tconv.in_channels()
                                     : layers.front().in_channels(),
                      "approx::apply_layer_stack");
  // The padding each layer's output needs: the next layer's "same" zeros,
  // or the HTCONV's replicated columns after the last one.
  const auto consumer_pad = [&](std::size_t i) {
    return i < layers.size() ? conv_q16_pad(layers[i].kernel())
                             : tconv_q16_pad(tconv.kernel());
  };
  std::size_t done = 0;
  Q16Planes planes;
  if (pack_q16(input, config, consumer_pad(0), planes)) {
    Q16Planes next;
    for (; done < layers.size(); ++done) {
      const ConvLayer& layer = layers[done];
      if (layer.in_channels() != planes.channels) {
        throw core::Error("approx::apply_layer_stack",
                          "layer input channels must match what feeds it",
                          "layer " + std::to_string(done) + " takes " +
                              std::to_string(layer.in_channels()) +
                              ", fed " + std::to_string(planes.channels));
      }
      Q16ConvPlan plan;
      if (!plan_q16_conv(layer, config, plan)) break;
      ICSC_TRACE_SPAN("conv/apply");
      next.reset(layer.out_channels(), planes.h, planes.w,
                 consumer_pad(done + 1));
      if (!run_q16_conv(plan, planes, config, next)) break;
      book_conv_macs(layer.out_channels(), planes.h, planes.w,
                     layer.kernel(), layer.in_channels(), ops);
      std::swap(planes, next);
    }
    if (done == layers.size()) {
      if (planes.channels != tconv.in_channels()) {
        throw core::Error("approx::apply_layer_stack",
                          "tconv input channels must match what feeds it",
                          "takes " + std::to_string(tconv.in_channels()) +
                              ", fed " + std::to_string(planes.channels));
      }
      ICSC_TRACE_SPAN("htconv/apply_foveated");
      core::Image out;
      if (foveated_q16(tconv, planes, fovea, config, ops, out)) return out;
    }
  }
  // A layer the integer path cannot hold, and every one after it, runs
  // through its apply: both paths give the same bits, so they can mix.
  FeatureMap act = done > 0 ? unpack_q16(planes, config) : input;
  for (; done < layers.size(); ++done) {
    act = layers[done].apply(act, config, ops);
  }
  return tconv.apply_foveated(act, fovea, config, ops);
}

}  // namespace icsc::approx
