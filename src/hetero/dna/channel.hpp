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
#include <string>
#include <vector>

#include "core/cancel.hpp"
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

/// Runs the channel with the re-read policy: the resilient run below with
/// default options (no journal, no deadline). With max_passes == 1 the
/// result's ReadSet is bit-identical to simulate_channel (same seed).
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

/// Resilience controls for the journaled channel run (core/cancel.hpp,
/// core/checkpoint.hpp). Defaults reproduce the plain in-memory run.
struct RereadRunOptions {
  /// Wall-clock budget; combined with `cancel` (whichever fires first).
  core::Deadline deadline;
  /// External cooperative stop handle, polled between strand batches.
  core::CancelToken cancel;
  /// Crash-safe run journal: one fsync'd record per completed strand
  /// batch, so a killed run resumed from the journal replays at most one
  /// batch of sequencing work. Empty disables journaling. A journal from a
  /// different (strands, channel, reread) run throws core::Error.
  std::string journal_path;
  /// Strands folded per journal record.
  std::size_t journal_batch = 64;
  /// Max batches to sequence in *this* invocation (0 = no limit); lets the
  /// kill/resume benches truncate a run at a deterministic point.
  std::size_t batch_budget = 0;
};

struct RereadRunOutcome {
  RereadResult result;
  bool completed = true;            // false when truncated by deadline/cancel
  std::size_t resumed_batches = 0;  // journal records replayed, not re-run
};

/// Journaled, cancellable re-read run; simulate_channel_reread is this run
/// with default options. A run killed at any point and re-invoked with
/// the same journal path resumes after the last durable batch and finishes
/// bit-identical to an uninterrupted run. Cancelled runs return the reads
/// accumulated so far as a valid partial flagged `completed = false`.
/// Throws core::Error unless params.validate() passes.
RereadRunOutcome simulate_channel_reread_resilient(
    const std::vector<Strand>& strands, const ChannelParams& params,
    const RereadParams& reread, const RereadRunOptions& options);

}  // namespace icsc::hetero::dna
