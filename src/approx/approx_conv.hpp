// Convolution datapath with approximate arithmetic operators (Sec. V).
//
// "AI models can take advantage of sophisticated approximation strategies
// that allow the fine-tuning of the power-delay-accuracy tradeoffs": this
// module executes a fixed-point convolution bit-accurately through the
// approximate multipliers/adders of approx_arith.hpp (truncated, Mitchell,
// lower-part-OR accumulation) and reports the relative datapath energy, so
// the quality/energy Pareto of operator choices can be swept.
#pragma once

#include "approx/approx_arith.hpp"
#include "approx/conv.hpp"

namespace icsc::approx {

struct ApproxArithConfig {
  enum class Multiplier { kExact, kTruncated, kMitchell };
  enum class Adder { kExact, kLoa };

  Multiplier multiplier = Multiplier::kExact;
  int truncated_bits = 8;  // columns dropped from the multiplier array
  Adder adder = Adder::kExact;
  int loa_bits = 8;        // OR-ed low bits of the accumulator

  /// Datapath energy relative to the exact multiplier+adder (1.0).
  /// Multipliers dominate: 80% of MAC energy; adders the remaining 20%.
  double energy_factor() const;

  /// Throws core::Error unless truncated_bits and loa_bits are in
  /// [0, 63]: both operators shift a 64-bit mask by them. apply_approx,
  /// apply_approx_reference and evaluate_approx_conv call it.
  void validate() const;
};

/// Runs `layer` on `input` through an integer datapath built from the
/// configured approximate operators. Activations are Q(a_int).(a_frac),
/// weights Q(w_int).(w_frac) per `quant`. Accumulation is 64-bit with the
/// configured adder; the result is rescaled, ReLU'd per the layer, and
/// re-quantised like ConvLayer::apply. Both datapaths throw core::Error
/// unless quant.enabled (the approximate units are integer hardware),
/// `input` is [in_channels, h, w] and arith.validate() passes.
/// Fast path: quantised im2col row panels + register-blocked accumulation
/// (conv_kernels.hpp). Per-output operator application order is identical
/// to `apply_approx_reference`, so outputs are bit-identical even under
/// the non-associative approximate adders.
FeatureMap apply_approx(const ConvLayer& layer, const FeatureMap& input,
                        const QuantConfig& quant,
                        const ApproxArithConfig& arith,
                        core::OpCounter* ops = nullptr);

/// The original scalar 5-deep loop, retained as the equivalence oracle for
/// tests and the old-path baseline for bench_kernels.
FeatureMap apply_approx_reference(const ConvLayer& layer,
                                  const FeatureMap& input,
                                  const QuantConfig& quant,
                                  const ApproxArithConfig& arith,
                                  core::OpCounter* ops = nullptr);

/// Quality/energy point of one approximate configuration vs the exact
/// fixed-point datapath on a synthetic image and a smoothing+edge kernel
/// stack (the sweep behind the Sec. V trade-off discussion).
struct ApproxConvResult {
  double psnr_vs_exact_db = 0.0;
  double energy_factor = 1.0;
};

ApproxConvResult evaluate_approx_conv(const ApproxArithConfig& arith,
                                      std::size_t image_size,
                                      std::uint64_t seed);

}  // namespace icsc::approx
