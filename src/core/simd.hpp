// Runtime-dispatched SIMD primitives for the hot kernels.
//
// Design rules (ROADMAP item 2):
//   - One binary runs everywhere: the ISA is picked at runtime from CPUID
//     (x86) or the architecture (aarch64), never at configure time. Each
//     ISA variant lives in its own translation unit compiled with the
//     matching -m flags, so the portable TUs never emit illegal opcodes.
//   - The scalar fallback is always compiled and is the equivalence
//     oracle: every vector path must produce bit-identical results.
//     Floating-point primitives therefore perform exactly the scalar
//     operation sequence per output element (separate IEEE multiply and
//     add, no FMA contraction, no cross-element reassociation) — lanes
//     only ever span *independent* accumulators. Integer primitives are
//     exact mod 2^64 by construction.
//   - `ICSC_SIMD=scalar|sse4|avx2|neon` overrides the choice, mirroring
//     ICSC_THREADS. Unsupported or unknown requests fall back to the best
//     ISA the CPU supports (never a crash, never an illegal instruction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace icsc::core::simd {

/// Instruction sets the dispatcher knows about, weakest first.
enum class Isa : int {
  kScalar = 0,
  kSse4 = 1,  // x86 SSE4.2 (2 x 64-bit lanes)
  kAvx2 = 2,  // x86 AVX2   (4 x 64-bit lanes)
  kNeon = 3,  // aarch64 Advanced SIMD (2 x 64-bit lanes)
};

/// Short lowercase name ("scalar", "sse4", "avx2", "neon") — the same
/// tokens ICSC_SIMD accepts.
const char* isa_name(Isa isa);

/// True when this CPU (and this build) can execute `isa`.
bool isa_supported(Isa isa);

/// Best ISA this CPU supports, ignoring any override.
Isa detected_isa();

/// ISA the primitives currently dispatch to. First use resolves the
/// ICSC_SIMD override (falling back to detected_isa() on unknown or
/// unsupported values); thereafter it only changes via set_active_isa.
Isa active_isa();

/// Requests `isa`; unsupported requests clamp to detected_isa(). Returns
/// the ISA actually now active. Used by the equivalence tests to sweep
/// every supported path.
Isa set_active_isa(Isa isa);

/// Pure resolution helper: the ISA that a given ICSC_SIMD value selects
/// ("auto"/unknown/unsupported -> detected_isa()). Exposed so the env
/// override is unit-testable without spawning processes.
Isa resolve_isa(const char* env_value);

/// Space-separated feature string of this CPU ("sse4.2 avx2 ..."), for the
/// bench scoreboard JSON.
std::string cpu_features();

// ---------------------------------------------------------------------------
// Floating-point panel primitives (conv / htconv, transformer GEMM).
// ---------------------------------------------------------------------------

/// acc[i] += w * double(x[i]) for i in [0, n). One widening convert, one
/// multiply, one add per element — the exact scalar sequence of the conv
/// row-panel accumulation, applied to n independent accumulators.
void axpy_f32_f64(double w, const float* x, double* acc, std::size_t n);

/// Whole-panel accumulation: acc[c] += sum over taps t (ascending) of
/// weights[t] * double(rows[t][c]), one IEEE multiply + add per tap per
/// column -- the same per-column sequence as `taps` successive
/// axpy_f32_f64 calls, but with the accumulator tiled into registers
/// across the tap loop so it is loaded/stored once per column tile
/// instead of once per tap.
void tap_panel_axpy_f32_f64(const float* const* rows, const double* weights,
                            std::size_t taps, double* acc, std::size_t n);

/// fp32 panel accumulation: acc[j] += w[t] * x[t * ldx + j] for j in
/// [0, n), over taps t ascending, one IEEE float multiply then one add per
/// tap per column (never an FMA). Accumulators stay in registers across the
/// tap loop, as in tap_panel_axpy_f32_f64. With acc zeroed and x a [taps, n]
/// matrix of row stride ldx, one call is a GEMM row acc = w x whose every
/// output sums its products in order from 0.0F -- the transformer's
/// tensor-engine GEMM (scf/transformer).
void panel_axpy_f32(const float* w, const float* x, std::size_t ldx,
                    std::size_t taps, float* acc, std::size_t n);

/// In-place fixed-point quantisation of a float buffer: each element is
/// scaled by 2^frac_bits, rounded half away from zero, clamped to the
/// signed (int_bits + frac_bits)-bit raw range, and rescaled — the exact
/// operation sequence of QuantConfig's per-element quantiser (double
/// arithmetic, one narrowing conversion at the end), applied lane-wise.
/// Every output-activation quantisation pass funnels through this.
void quantize_fixed_f32(float* data, std::size_t n, int int_bits,
                        int frac_bits);

// ---------------------------------------------------------------------------
// Quantised conv tap primitives (approximate-arithmetic datapath).
// ---------------------------------------------------------------------------

/// acc[i] = add(acc[i], int64(x[i]) * w): exact multiply, with the LOA
/// approximate adder when loa_bits > 0 (low `loa_bits` OR'd, high bits
/// added carry-free) and the exact adder otherwise. Wrap-around follows
/// two's-complement mod 2^64, matching approx::loa_add exactly.
void qtap_exact(const std::int32_t* x, std::int32_t w, int loa_bits,
                std::int64_t* acc, std::size_t n);

/// acc[i] = add(acc[i], truncated_mul(x[i], w, trunc_bits)): the truncated
/// array multiplier (partial products below bit `trunc_bits` dropped,
/// sign-magnitude), combined with the exact or LOA adder as above.
/// Bit-identical to approx::truncated_mul + approx::loa_add for every
/// input, including INT32_MIN and wrap-around.
void qtap_truncated(const std::int32_t* x, std::int32_t w, int trunc_bits,
                    int loa_bits, std::int64_t* acc, std::size_t n);

// ---------------------------------------------------------------------------
// Exact 16-bit integer MAC panel (quantised FSRCNN layers and HTCONV).
// ---------------------------------------------------------------------------

/// Most output channels one madd_panel_i16 call accumulates.
inline constexpr std::size_t kMaddMaxOuts = 4;
/// Columns of madd_panel_i16's widest vector tile (AVX2). A column count
/// that is a multiple of it never reaches the scalar tail on any ISA.
inline constexpr std::size_t kMaddColumnTile = 16;

/// Exact int16 x int16 -> int32 multiply-add over a tap panel (the pmaddwd
/// class: 16 MACs per AVX2 instruction). Operands come in channel pairs:
/// column c of tap t is the pair rows[t][2c], rows[t][2c + 1], and output
/// o's weight for tap t the pair w[2(o * taps + t)], w[2(o * taps + t) + 1].
/// For each output o < outs (at most kMaddMaxOuts) and column c < n:
///   acc[o * ld + c] += sum over t < taps of
///       rows[t][2c] * w[2(o * taps + t)] + rows[t][2c + 1] * w[... + 1].
/// Vector paths keep int32 partial sums and add them into the int64
/// accumulators every `flush_taps` taps (>= 1); each loaded activation
/// vector serves all `outs` outputs. The caller guarantees
/// flush_taps * 2 * max|x| * max|w| <= 2^31 - 1, so no partial sum
/// overflows. Integer sums are then exact: every ISA and every tap order
/// returns the bits of the scalar oracle, which sums in int64 directly.
void madd_panel_i16(const std::int16_t* const* rows, const std::int16_t* w,
                    std::size_t taps, std::size_t outs,
                    std::size_t flush_taps, std::int64_t* acc,
                    std::size_t ld, std::size_t n);

/// The conv engines' epilogue on exact integer sums, for a channel pair:
/// per sum, a = double(acc) * scale, max(0, a) when relu, rounded to float,
/// then quantize_fixed_f32's op sequence onto the signed
/// (int_bits + frac_bits)-bit grid. Writes the raw values as int16 pairs,
/// out[2i] from lo[i] and out[2i + 1] from hi[i] (0 when hi is null), and
/// returns the largest |raw| written. Requires |acc| < 2^51 and
/// int_bits + frac_bits <= 15.
int requantize_pair_q16(const std::int64_t* lo, const std::int64_t* hi,
                        std::size_t n, double scale, bool relu, int int_bits,
                        int frac_bits, std::int16_t* out);

// ---------------------------------------------------------------------------
// Counter-based normal deviates (IMC crossbar read noise).
// ---------------------------------------------------------------------------

/// Standard-normal pairs from a counter-based stream: pair j is a pure
/// function of (key, first + j), so any split of a counter range over
/// calls, lanes or threads returns the same bits. For j < count,
/// h = fault_hash(key, first + j) (counters wrap mod 2^64) and Box-Muller
/// turns h into (z0[j], z1[j]) = (r cos theta, r sin theta):
///   - r = sqrt(-2 ln u1), u1 = ((h >> 32) + 1) * 2^-32 in (0, 1], so
///     |z| <= sqrt(64 ln 2) ~= 6.66;
///   - theta = q * pi/2 + phi, with quadrant q = bits 31..30 of h and
///     phi = ((h & (2^30 - 1)) - 2^29 + 1/2) * (pi/2) * 2^-30 in
///     (-pi/4, pi/4).
/// ln u1 splits off the binary exponent and sums a 10-term atanh series of
/// the mantissa; sin/cos phi are degree-17/16 Taylor polynomials. Only
/// IEEE +, -, *, / and sqrt are used (no FMA, no libm call), so the
/// scalar oracle and every vector path return the same bits. The log and
/// sin/cos stay within a few ulp of libm (core_simd_test states the
/// measured bound).
void normal_pairs(std::uint64_t key, std::uint64_t first, std::size_t count,
                  double* z0, double* z1);

// ---------------------------------------------------------------------------
// Histogram / bit-parallel genomics primitives.
// ---------------------------------------------------------------------------

/// Sum over i of |a[i] - b[i]| for uint16 histograms, mod 2^32 (identical
/// wrap-around to the scalar uint32 accumulation). The q-gram screen of
/// the DNA clustering pass spends most of its time here.
std::uint32_t l1_distance_u16(const std::uint16_t* a, const std::uint16_t* b,
                              std::size_t n);

/// Banded Myers/Hyyro bit-parallel edit distance of one pattern against
/// `count` texts, lanes batched across texts. `peq` is the pattern's
/// match-mask table, laid out [block][symbol] with 4 symbols per block
/// (64 pattern positions per block); `pattern_len` is the pattern length.
/// Texts are symbol codes in [0, 4). out[i] is exactly what the scalar
/// banded kernel returns: the edit distance when <= band, else band + 1.
void myers_banded_batch(const std::uint64_t* peq, std::size_t blocks,
                        std::size_t pattern_len,
                        const std::uint8_t* const* texts,
                        const std::size_t* text_lens, std::size_t count,
                        int band, int* out);

}  // namespace icsc::core::simd
