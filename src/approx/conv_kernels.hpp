// Register-blocked convolution micro-kernels (im2col row panels).
//
// The scalar engines in conv.cpp / approx_conv.cpp walk (ic, u, v) with
// padding guards inside the innermost loop. These helpers restructure that
// walk without changing any per-output accumulation order, so quantized
// outputs stay bit-identical to the reference loops:
//
//   * a per-output-row im2col panel packs every valid (ic, u, v) tap into a
//     dense (taps x interior-width) matrix, built once per row and reused
//     across all output channels;
//   * the micro-kernels iterate taps in the panel's (ic, u, v) order with
//     the column loop innermost, so each output column's accumulator sees
//     exactly the reference tap sequence while the compiler vectorises
//     across the independent columns;
//   * border columns (where some horizontal tap falls outside the frame)
//     are excluded from the panel entirely -- zero-padding them instead
//     would insert `acc + 0` terms the reference never executes, which is
//     not an FP identity (it can flip -0.0 to +0.0).
//
// Rows/columns whose panel is empty (w < k, degenerate shapes) simply fall
// back to the callers' retained scalar paths.
//
// The exact Q16 integer path at the end of this header replaces these f64
// panels whenever quantisation is on and the operands fit int16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "approx/approx_conv.hpp"
#include "core/aligned.hpp"
#include "core/tensor.hpp"

namespace icsc::approx {

/// The contiguous run of output columns for which every horizontal kernel
/// tap cc = c + v - pad stays inside [0, w). Outside it (the left/right
/// borders, or everywhere when w < k) callers use the scalar path.
struct ColumnInterior {
  std::size_t begin = 0;
  std::size_t count = 0;
};
ColumnInterior conv_interior(std::size_t width, std::size_t kernel);

/// Dense im2col panel for one output row of a stride-1 "same" convolution:
/// row t holds input(ic, r + u - pad, begin + v - pad ... ) for the t-th
/// valid tap (ic, u, v), enumerated in exactly the reference loop's
/// (ic, u, v) order with vertically-clipped taps skipped. `tap_flat` maps
/// each panel row back to its (ic * k + u) * k + v weight offset.
struct ConvRowPanel {
  ColumnInterior interior;
  std::size_t taps = 0;
  core::aligned_vector<float> data;     // taps x interior.count, row-major
  std::vector<std::uint32_t> tap_flat;  // taps entries into [cin*k*k) weights
  std::vector<const float*> row_ptrs;   // taps pointers into data
  core::aligned_vector<double> tap_w;   // per-channel weight scratch

  bool empty() const { return taps == 0 || interior.count == 0; }
};

/// (Re)builds `panel` for output row `r`. `input` is a [cin, h, w] tensor.
/// The panel's storage is reused across calls, so one scratch panel per
/// worker serves a whole row range without reallocating.
void build_conv_row_panel(const core::TensorF& input, std::size_t r,
                          std::size_t kernel, ConvRowPanel& panel);

/// Accumulates the panel against one output channel's flattened weights
/// (`w_flat`, laid out [cin*k*k] in (ic, u, v) order): for each interior
/// column c, acc[c] += sum over panel taps of w * tap, added in panel tap
/// order -- the reference accumulation sequence. `acc` has interior.count
/// entries, pre-seeded with the bias by the caller. Takes the panel
/// mutably only to reuse its per-channel weight scratch.
void conv_panel_dot_f32(ConvRowPanel& panel, const float* w_flat,
                        double* acc);

/// Integer twin for the approximate datapath: the panel packs pre-quantised
/// i32 activations and the caller combines them through the configurable
/// multiplier/adder functors. Same ordering guarantees as the float panel.
struct QConvRowPanel {
  ColumnInterior interior;
  std::size_t taps = 0;
  core::aligned_vector<std::int32_t> data;  // taps x interior.count, row-major
  std::vector<std::uint32_t> tap_flat;

  bool empty() const { return taps == 0 || interior.count == 0; }
};

/// `q_input` is the flattened [cin, h, w] quantised activation array.
void build_qconv_row_panel(const std::int32_t* q_input, std::size_t cin,
                           std::size_t h, std::size_t w, std::size_t r,
                           std::size_t kernel, QConvRowPanel& panel);

/// Accumulates the quantised panel against one output channel's flattened
/// weights through the configured approximate multiplier/adder chain:
/// acc[c] = add(acc[c], mul(tap, w)) in panel tap order. Exact and
/// truncated multipliers (with exact or LOA adders) run on the SIMD lanes
/// of core/simd.hpp, bit-identical to the scalar operator chain; the
/// Mitchell multiplier keeps the scalar functors (its leading-one scan
/// does not vectorise into the same bit pattern cheaply).
void qconv_panel_dot(const QConvRowPanel& panel, const std::int32_t* w_flat,
                     const ApproxArithConfig& arith, std::int64_t* acc);

// ---------------------------------------------------------------------------
// Exact Q16 integer path (quantised ConvLayer, HTCONV and the FSRCNN stack).
//
// With quantisation on, an activation is a Q(ai).(af) value and a quantised
// weight a Q(wi).(wf) value, so every product is an integer multiple of
// 2^-(af + wf). While the sums stay below 2^53 such units the f64 engines
// add them exactly, so an int64 sum of raw products, converted to double
// once, is the f64 accumulator bit for bit, whatever the tap order. These
// helpers keep activations as int16 channel-pair planes and run every tap
// on core::simd::madd_panel_i16. Padding makes borders ordinary columns: a
// ConvLayer pads with zeros (x * 0 = 0 exactly in integers), the HTCONV
// replicates its edge columns (its border policy clamps). The f64 panels
// above remain the path for quantisation off and for any input this one
// cannot hold.
// ---------------------------------------------------------------------------

/// Border a consumer reads around the h x w frame, in pairs.
struct Q16Pad {
  std::size_t top = 0, bottom = 0, left = 0, right = 0;
  bool replicate = false;  // copy each row's edge pairs outward, else zeros
};

/// The "same" zero padding of a k x k stride-1 ConvLayer.
Q16Pad conv_q16_pad(std::size_t kernel);

/// Raw int16 activations of a [channels, h, w] map as channel-pair planes:
/// plane p interleaves channels 2p and 2p + 1 as (lo, hi) int16 pairs, one
/// pair per column, and an odd channel count gets an all-zero partner.
/// Each plane is rows x stride pairs with the frame at (pad.top, pad.left);
/// a madd_panel_i16 row pointer at any frame column reads only pairs of its
/// own padded row.
struct Q16Planes {
  std::size_t channels = 0, h = 0, w = 0;
  Q16Pad pad;
  std::size_t rows = 0, stride = 0;
  int max_abs = 0;  // largest |raw| in the frame
  core::aligned_vector<std::int16_t> data;

  std::size_t pairs() const { return (channels + 1) / 2; }
  /// First int16 of padded row `r` of plane `p`.
  const std::int16_t* row(std::size_t p, std::size_t r) const {
    return data.data() + 2 * (p * rows + r) * stride;
  }
  std::int16_t* row(std::size_t p, std::size_t r) {
    return data.data() + 2 * (p * rows + r) * stride;
  }
  /// Shapes the planes for a [channels, h, w] frame, all zero.
  void reset(std::size_t channels, std::size_t h, std::size_t w,
             const Q16Pad& pad);
  /// With pad.replicate, copies each frame row's edge pairs into its
  /// left and right border.
  void fill_border();
};

/// True when the integer path can hold `config`'s formats: quantisation on
/// and int + frac <= 15 bits for activations and for weights.
bool q16_supported(const QuantConfig& config);

/// Packs `input` ([channels, h, w]) into `planes`, padded per `pad`.
/// Returns false unless q16_supported(config) holds and every value is on
/// the activation grid: a multiple of 2^-af inside the signed
/// (ai + af)-bit raw range, as quantize_map leaves it (NaN and infinities
/// are off the grid).
bool pack_q16(const FeatureMap& input, const QuantConfig& config,
              const Q16Pad& pad, Q16Planes& planes);

/// The frame of `planes` as a float map: raw * 2^-af, exact.
FeatureMap unpack_q16(const Q16Planes& planes, const QuantConfig& config);

/// Taps per int64 flush for madd_panel_i16 over `taps` taps whose operands
/// are bounded by max_a and max_w, after a bias of up to max_bias units:
/// floor((2^31 - 1) / (2 max_a max_w)). Returns 0 -- the integer path may
/// not run -- when that is below 1 (only -128.0 meeting -8.0 in Q7.8 x
/// Q3.12) or when a sum could reach 2^51 units: the f64 engines stay exact
/// up to 2^53, and requantize_pair_q16 converts sums up to 2^51.
std::size_t q16_flush_taps(std::size_t taps, std::int64_t max_a,
                           std::int64_t max_w, std::int64_t max_bias);

/// Quantises `weights` per `config` and stores their raw int16 values in
/// `raw` (same order) and the largest |raw| in `max_abs`. Returns false
/// for a weight off the grid: a NaN stays NaN through quantisation.
bool q16_weights_raw(const core::TensorF& weights, const QuantConfig& config,
                     std::vector<std::int16_t>& raw, std::int64_t& max_abs);

/// A ConvLayer prepared for the integer path.
struct Q16ConvPlan {
  std::size_t cout = 0, k = 0;
  std::size_t taps = 0;  // pairs * k * k
  bool relu = true;
  std::int64_t max_abs_w = 0, max_abs_bias = 0;
  std::vector<std::int16_t> weights;  // [cout][pair][u][v] (lo, hi) pairs
  std::vector<std::int64_t> bias;     // [cout], in units of 2^-(af + wf)
};

/// Quantises `layer`'s weights into `plan`. Returns false when
/// q16_supported(config) fails, a quantised weight is off its grid, or a
/// bias is off the accumulator grid 2^-(af + wf).
bool plan_q16_conv(const ConvLayer& layer, const QuantConfig& config,
                   Q16ConvPlan& plan);

/// Runs the planned layer on `in` (padded per conv_q16_pad). The first
/// overload requantises every output as the f64 engine's epilogue and
/// quantize_map do (core::simd::requantize_pair_q16) and writes the raw
/// values into the frame of `out`, which the caller has reset for
/// plan.cout channels and the consumer's padding. The second stores what
/// the f64 engine stores before quantize_map: the ReLU'd sum rounded to
/// float. Both return false, writing nothing, when q16_flush_taps leaves
/// no tap per flush for this input.
bool run_q16_conv(const Q16ConvPlan& plan, const Q16Planes& in,
                  const QuantConfig& config, Q16Planes& out);
bool run_q16_conv(const Q16ConvPlan& plan, const Q16Planes& in,
                  const QuantConfig& config, FeatureMap& out);

}  // namespace icsc::approx
