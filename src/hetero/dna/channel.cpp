#include "hetero/dna/channel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/trace.hpp"

namespace icsc::hetero::dna {

void ChannelParams::validate() const {
  const std::string where = "dna::ChannelParams";
  // Throws unless value is finite and in [0, max], or [0, max) if `open`.
  const auto require_in = [&](const char* field, double value, double max,
                              bool open = false) {
    core::require_at_least(where, field, value, 0.0);
    if (open ? value < max : value <= max) return;
    char bound[40];
    char got[40];
    std::snprintf(bound, sizeof bound, open ? " must be < %g" : " must be <= %g",
                  max);
    std::snprintf(got, sizeof got, "got %g", value);
    throw core::Error(where, field + std::string(bound), got);
  };
  require_in("substitution_rate", substitution_rate, 1.0);
  // Rng::uniform() < 1 always, so at 1 the insertion loop never ends.
  require_in("insertion_rate", insertion_rate, 1.0, /*open=*/true);
  require_in("deletion_rate", deletion_rate, 1.0);
  require_in("dropout_rate", dropout_rate, 1.0);
  require_in("burst_rate", burst_rate, 1.0);
  require_in("mean_coverage", mean_coverage, kMaxPoissonMean);
  require_in("burst_length_mean", burst_length_mean, kMaxPoissonMean);
}

namespace {

/// corrupt_strand without the parameter check, for the channel loops that
/// validated once on entry.
Strand corrupt_bases(const Strand& strand, const ChannelParams& params,
                     core::Rng& rng, std::uint64_t* subs, std::uint64_t* ins,
                     std::uint64_t* dels) {
  Strand out;
  out.reserve(strand.size() + 4);
  for (const Base original : strand) {
    // Insertion before the current base (possibly several).
    while (rng.bernoulli(params.insertion_rate)) {
      out.push_back(static_cast<Base>(rng.below(4)));
      if (ins) ++*ins;
    }
    if (rng.bernoulli(params.deletion_rate)) {
      if (dels) ++*dels;
      continue;
    }
    if (rng.bernoulli(params.substitution_rate)) {
      // Substitute with one of the three other bases.
      const auto offset = 1 + rng.below(3);
      out.push_back(static_cast<Base>(
          (static_cast<std::uint8_t>(original) + offset) & 0x3));
      if (subs) ++*subs;
    } else {
      out.push_back(original);
    }
  }
  return out;
}

/// Overwrites a contiguous run of bases with random symbols.
void apply_burst(Strand& bases, const ChannelParams& params, core::Rng& rng,
                 ReadSet& set) {
  if (bases.empty()) return;
  const std::size_t start = rng.below(bases.size());
  std::size_t len =
      1 + static_cast<std::size_t>(
              rng.poisson(std::max(0.0, params.burst_length_mean - 1.0)));
  len = std::min(len, bases.size() - start);
  for (std::size_t i = 0; i < len; ++i) {
    bases[start + i] = static_cast<Base>(rng.below(4));
  }
  ++set.burst_events;
  set.substitutions += len;
}

/// Emits the Poisson copies of strand `s` into `set`. Shared by the
/// single-pass channel and each re-read pass so their statistics match.
/// Burst draws happen only when burst_rate > 0, keeping the burst-free
/// RNG stream unchanged.
int emit_copies(const Strand& strand, std::size_t s,
                const ChannelParams& params, core::Rng& rng, ReadSet& set) {
  const int copies = rng.poisson(params.mean_coverage);
  for (int c = 0; c < copies; ++c) {
    Read read;
    read.origin = s;
    read.bases = corrupt_bases(strand, params, rng, &set.substitutions,
                               &set.insertions, &set.deletions);
    if (params.burst_rate > 0.0 && rng.bernoulli(params.burst_rate)) {
      apply_burst(read.bases, params, rng, set);
    }
    set.reads.push_back(std::move(read));
  }
  return copies;
}

}  // namespace

Strand corrupt_strand(const Strand& strand, const ChannelParams& params,
                      core::Rng& rng, std::uint64_t* subs, std::uint64_t* ins,
                      std::uint64_t* dels) {
  params.validate();
  return corrupt_bases(strand, params, rng, subs, ins, dels);
}

ReadSet simulate_channel(const std::vector<Strand>& strands,
                         const ChannelParams& params) {
  params.validate();
  core::Rng rng(params.seed);
  ReadSet set;
  set.source_strands = strands.size();
  for (std::size_t s = 0; s < strands.size(); ++s) {
    if (params.dropout_rate > 0.0 && rng.bernoulli(params.dropout_rate)) {
      ++set.dropped_strands;
      continue;
    }
    const int copies = emit_copies(strands[s], s, params, rng, set);
    if (copies == 0) ++set.dropped_strands;
  }
  return set;
}

namespace {

// ---------------------------------------------------------------------------
// Journaled re-read (core/checkpoint.hpp). One record per completed strand
// batch carries the absolute counters, the per-strand coverage/loss state
// for its range, the RNG position after the batch, and the reads it
// emitted -- everything needed to replay the journal into the exact live
// state and continue, so a SIGKILL costs at most one batch of re-work.

constexpr std::uint32_t kRereadJournalKind = 0x4A414E44;  // "DNAJ"
constexpr std::uint8_t kRecHeader = 0;    // fingerprint pin
constexpr std::uint8_t kRecBatch = 1;     // one completed strand batch
constexpr std::uint8_t kRecPassDone = 2;  // starved bitmap after pass 1

std::uint64_t fold_f64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return core::fault_hash(h, bits);
}

/// Fingerprint of everything that determines the read stream: channel and
/// re-read parameters plus the strand pool itself.
std::uint64_t reread_fingerprint(const std::vector<Strand>& strands,
                                 const ChannelParams& params,
                                 const RereadParams& reread) {
  std::uint64_t h = core::fault_hash(0xD4A'0C11ULL, params.seed);
  h = fold_f64(h, params.substitution_rate);
  h = fold_f64(h, params.insertion_rate);
  h = fold_f64(h, params.deletion_rate);
  h = fold_f64(h, params.mean_coverage);
  h = fold_f64(h, params.dropout_rate);
  h = fold_f64(h, params.burst_rate);
  h = fold_f64(h, params.burst_length_mean);
  h = core::fault_hash(h, static_cast<std::uint64_t>(reread.max_passes));
  h = core::fault_hash(h, reread.min_coverage);
  h = core::fault_hash(h, strands.size());
  for (const Strand& strand : strands) {
    h = core::fault_hash(h, strand.size());
    for (const Base base : strand) {
      h = core::fault_hash(h, static_cast<std::uint8_t>(base));
    }
  }
  return h;
}

void put_rng(core::SnapshotWriter& w, const core::Rng& rng) {
  const core::Rng::State st = rng.state();
  for (const std::uint64_t word : st.s) w.put_u64(word);
  w.put_f64(st.cached_normal);
  w.put_bool(st.has_cached_normal);
}

void get_rng(core::SnapshotReader& r, core::Rng& rng) {
  core::Rng::State st;
  for (std::uint64_t& word : st.s) word = r.get_u64();
  st.cached_normal = r.get_f64();
  st.has_cached_normal = r.get_bool();
  rng.restore(st);
}

std::uint64_t pass_stream_seed(const ChannelParams& params, int pass) {
  return params.seed +
         0x9E37'79B9'7F4A'7C15ULL * static_cast<std::uint64_t>(pass - 1);
}

}  // namespace

RereadRunOutcome simulate_channel_reread_resilient(
    const std::vector<Strand>& strands, const ChannelParams& params,
    const RereadParams& reread, const RereadRunOptions& options) {
  params.validate();
  RereadRunOutcome outcome;
  RereadResult& result = outcome.result;
  ReadSet& set = result.set;
  set.source_strands = strands.size();
  std::vector<std::size_t> coverage(strands.size(), 0);
  std::vector<char> lost(strands.size(), 0);  // permanent synthesis dropout
  std::vector<char> starved(strands.size(), 0);  // zero coverage after pass 1
  const int max_passes = std::max(1, reread.max_passes);
  const std::size_t batch = std::max<std::size_t>(1, options.journal_batch);

  // Live cursor: pass number, next strand to sequence, the pass's RNG.
  int pass = 1;
  std::size_t next_s = 0;
  core::Rng rng(pass_stream_seed(params, 1));
  bool pass1_recorded = false;  // kRecPassDone durable

  const bool persist = !options.journal_path.empty();
  core::RunJournal journal;
  std::uint64_t fingerprint = 0;
  if (persist) {
    fingerprint = reread_fingerprint(strands, params, reread);
    journal = core::RunJournal(options.journal_path, kRereadJournalKind);
    // Replay the recovered prefix into the live state machine.
    for (const core::JournalRecord& record : journal.recovered()) {
      core::SnapshotReader r(record.payload);
      switch (r.get_u8()) {
        case kRecHeader:
          if (r.get_u64() != fingerprint) {
            throw core::Error("dna::channel",
                              "journal belongs to a different run",
                              options.journal_path);
          }
          break;
        case kRecPassDone:
          for (std::size_t s = 0; s < strands.size(); ++s) {
            starved[s] = static_cast<char>(r.get_bool());
          }
          pass1_recorded = true;
          break;
        case kRecBatch: {
          pass = static_cast<int>(r.get_u32());
          const auto s_begin = static_cast<std::size_t>(r.get_u64());
          const auto s_end = static_cast<std::size_t>(r.get_u64());
          get_rng(r, rng);
          set.substitutions = r.get_u64();
          set.insertions = r.get_u64();
          set.deletions = r.get_u64();
          set.burst_events = r.get_u64();
          set.dropped_strands = static_cast<std::size_t>(r.get_u64());
          for (std::size_t s = s_begin; s < s_end && s < strands.size(); ++s) {
            coverage[s] = static_cast<std::size_t>(r.get_u64());
            lost[s] = static_cast<char>(r.get_bool());
          }
          const std::uint64_t reads = r.get_u64();
          for (std::uint64_t i = 0; i < reads; ++i) {
            Read read;
            read.origin = static_cast<std::size_t>(r.get_u64());
            const auto len = static_cast<std::size_t>(r.get_u64());
            const auto bytes = r.get_bytes(len);
            read.bases.reserve(len);
            for (const std::uint8_t b : bytes) {
              read.bases.push_back(static_cast<Base>(b & 0x3));
            }
            set.reads.push_back(std::move(read));
          }
          result.passes_used = pass;
          next_s = s_end;
          ++outcome.resumed_batches;
          break;
        }
        default:
          throw core::Error("dna::channel", "unknown journal record type",
                            options.journal_path);
      }
    }
    if (journal.recovered().empty()) {
      core::SnapshotWriter header;
      header.put_u8(kRecHeader);
      header.put_u64(fingerprint);
      journal.append(header);
    }
  }

  const core::CancelToken token = options.cancel.with_deadline(options.deadline);
  bool cancelled = false;
  bool finished = false;
  std::size_t executed_batches = 0;
  while (!finished && !cancelled) {
    if (next_s >= strands.size()) {
      // Pass boundary: derive the starved set after pass 1 (recomputed on
      // replay paths that died before the kRecPassDone record landed),
      // then either converge or put the under-covered strands back on the
      // sequencer for another pass.
      if (pass == 1) {
        for (std::size_t s = 0; s < strands.size(); ++s) {
          starved[s] = static_cast<char>(!lost[s] && coverage[s] == 0);
        }
        if (persist && !pass1_recorded) {
          core::SnapshotWriter w;
          w.put_u8(kRecPassDone);
          for (std::size_t s = 0; s < strands.size(); ++s) {
            w.put_bool(starved[s] != 0);
          }
          journal.append(w);
          pass1_recorded = true;
        }
      }
      bool needed = false;
      for (std::size_t s = 0; s < strands.size() && !needed; ++s) {
        needed = !lost[s] && coverage[s] < reread.min_coverage;
      }
      if (!needed || pass >= max_passes) {
        finished = true;
        break;
      }
      ++pass;
      next_s = 0;
      rng = core::Rng(pass_stream_seed(params, pass));
      continue;
    }
    if (token.cancelled() || (options.batch_budget != 0 &&
                              executed_batches >= options.batch_budget)) {
      cancelled = true;
      break;
    }
    ++executed_batches;
    ICSC_TRACE_SPAN("dna/archival_batch");
    ICSC_TRACE_COUNT("dna.archival_batches", 1);
    result.passes_used = pass;
    const std::size_t s_begin = next_s;
    const std::size_t s_end = std::min(strands.size(), s_begin + batch);
    const std::size_t reads_before = set.reads.size();
    for (std::size_t s = s_begin; s < s_end; ++s) {
      if (pass == 1) {
        if (params.dropout_rate > 0.0 && rng.bernoulli(params.dropout_rate)) {
          lost[s] = 1;  // never synthesised: no pass can read it back
          ++set.dropped_strands;
          continue;
        }
      } else if (lost[s] || coverage[s] >= reread.min_coverage) {
        continue;  // only the starved strands go back on the sequencer
      }
      const int copies = emit_copies(strands[s], s, params, rng, set);
      if (pass == 1 && copies == 0) ++set.dropped_strands;
      coverage[s] += static_cast<std::size_t>(copies);
    }
    next_s = s_end;
    if (persist) {
      core::SnapshotWriter w;
      w.put_u8(kRecBatch);
      w.put_u32(static_cast<std::uint32_t>(pass));
      w.put_u64(s_begin);
      w.put_u64(s_end);
      put_rng(w, rng);
      w.put_u64(set.substitutions);
      w.put_u64(set.insertions);
      w.put_u64(set.deletions);
      w.put_u64(set.burst_events);
      w.put_u64(set.dropped_strands);
      for (std::size_t s = s_begin; s < s_end; ++s) {
        w.put_u64(coverage[s]);
        w.put_bool(lost[s] != 0);
      }
      w.put_u64(set.reads.size() - reads_before);
      for (std::size_t i = reads_before; i < set.reads.size(); ++i) {
        const Read& read = set.reads[i];
        w.put_u64(read.origin);
        w.put_u64(read.bases.size());
        for (const Base base : read.bases) {
          w.put_u8(static_cast<std::uint8_t>(base));
        }
      }
      journal.append(w);
    }
  }

  for (std::size_t s = 0; s < strands.size(); ++s) {
    if (starved[s] && coverage[s] > 0) ++result.rescued_strands;
    if (lost[s] || coverage[s] == 0) ++result.unrecovered_strands;
  }
  outcome.completed = !cancelled;
  return outcome;
}

RereadResult simulate_channel_reread(const std::vector<Strand>& strands,
                                     const ChannelParams& params,
                                     const RereadParams& reread) {
  return simulate_channel_reread_resilient(strands, params, reread, {}).result;
}

}  // namespace icsc::hetero::dna
