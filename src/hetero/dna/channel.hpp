// DNA channel noise model (Sec. VI, Fig. 6b).
//
// "A distinctive feature of the DNA channel is that the input consists of
// numerous strings of similar lengths that share a certain degree of
// similarity". Synthesis, PCR amplification, storage, and sequencing
// introduce substitutions, insertions, deletions, a skewed copy-count
// distribution, and whole-strand dropout. The model follows the DNAssim
// framework's channel decomposition [26].
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {

struct ChannelParams {
  double substitution_rate = 0.005;  // per base
  double insertion_rate = 0.0025;
  double deletion_rate = 0.0025;
  double mean_coverage = 8.0;        // mean sequencing copies per strand
  double dropout_rate = 0.0;         // extra whole-strand loss probability
  /// Burst errors: probability per read that a contiguous run of bases is
  /// overwritten with random symbols (sequencing artefacts, damage spots).
  /// Zero keeps the channel bit-identical to the burst-free model.
  double burst_rate = 0.0;
  double burst_length_mean = 8.0;  // mean run length of one burst
  std::uint64_t seed = 1;

  /// Upper bound of mean_coverage and burst_length_mean: Poisson draws at
  /// this mean stay far inside an int (a draw exceeds the mean by less
  /// than 9 standard deviations), and it is well past any sequencing depth.
  static constexpr double kMaxPoissonMean = 1e6;

  /// Throws core::Error unless every rate is finite and in [0, 1],
  /// insertion_rate < 1 (each base draws insertions until one fails), and
  /// mean_coverage and burst_length_mean are finite and in
  /// [0, kMaxPoissonMean]. Every entry point below calls it.
  void validate() const;
};

/// One sequencing read: a noisy copy of some original strand.
struct Read {
  Strand bases;
  std::size_t origin = 0;  // index of the source strand (ground truth)
};

struct ReadSet {
  std::vector<Read> reads;
  std::size_t source_strands = 0;
  std::uint64_t substitutions = 0;
  std::uint64_t insertions = 0;
  std::uint64_t deletions = 0;
  std::size_t dropped_strands = 0;
  std::uint64_t burst_events = 0;
};

/// Applies the channel to every strand: Poisson copy counts, i.i.d. per-base
/// errors. Deterministic given params.seed. Throws core::Error unless
/// params.validate() passes.
ReadSet simulate_channel(const std::vector<Strand>& strands,
                         const ChannelParams& params);

/// Multi-pass re-read (retry) policy in front of ECC decode: strands whose
/// accumulated coverage is below `min_coverage` after a pass go back on the
/// sequencer for another pass, up to `max_passes` total. Synthesis dropout
/// (ChannelParams::dropout_rate) is permanent -- the strand was never made,
/// so no amount of re-reading recovers it; zero-coverage strands (Poisson
/// luck) are exactly what retry rescues.
struct RereadParams {
  int max_passes = 1;            // 1 == single-shot channel, no retry
  std::size_t min_coverage = 2;  // re-read strands with fewer reads
};

struct RereadResult {
  ReadSet set;
  int passes_used = 1;
  /// Strands with zero coverage after pass 1 that later passes recovered.
  std::size_t rescued_strands = 0;
  /// Strands with no reads at the end (includes permanent dropout).
  std::size_t unrecovered_strands = 0;
};

/// Runs the channel with the re-read policy. Pass p draws from its own
/// stream (seed + (p - 1) * golden-ratio step) over the strands in order;
/// pass 1 reads every strand, a later pass only the strands still below
/// min_coverage. With max_passes == 1 the result's ReadSet is
/// bit-identical to simulate_channel (same seed).
/// ReadSet::dropped_strands counts pass-1 loss events even when a later
/// pass rescues the strand; `unrecovered_strands` is the final census.
/// Throws core::Error unless params.validate() passes.
RereadResult simulate_channel_reread(const std::vector<Strand>& strands,
                                     const ChannelParams& params,
                                     const RereadParams& reread);

/// Applies per-base noise to a single strand (the channel's per-read step).
/// Throws core::Error unless params.validate() passes.
Strand corrupt_strand(const Strand& strand, const ChannelParams& params,
                      core::Rng& rng, std::uint64_t* subs = nullptr,
                      std::uint64_t* ins = nullptr,
                      std::uint64_t* dels = nullptr);

}  // namespace icsc::hetero::dna
