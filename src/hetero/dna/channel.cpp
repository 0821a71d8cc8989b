#include "hetero/dna/channel.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/error.hpp"
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

std::uint64_t pass_stream_seed(const ChannelParams& params, int pass) {
  return params.seed +
         0x9E37'79B9'7F4A'7C15ULL * static_cast<std::uint64_t>(pass - 1);
}

}  // namespace

RereadResult simulate_channel_reread(const std::vector<Strand>& strands,
                                     const ChannelParams& params,
                                     const RereadParams& reread) {
  params.validate();
  RereadResult result;
  ReadSet& set = result.set;
  set.source_strands = strands.size();
  std::vector<std::size_t> coverage(strands.size(), 0);
  std::vector<char> lost(strands.size(), 0);  // permanent synthesis dropout
  std::vector<char> starved(strands.size(), 0);  // zero coverage after pass 1
  const int max_passes = std::max(1, reread.max_passes);
  for (int pass = 1; pass <= max_passes; ++pass) {
    if (pass > 1) {
      // Converged once every surviving strand has min_coverage reads.
      bool needed = false;
      for (std::size_t s = 0; s < strands.size() && !needed; ++s) {
        needed = !lost[s] && coverage[s] < reread.min_coverage;
      }
      if (!needed) break;
    }
    ICSC_TRACE_SPAN("dna/reread_pass");
    result.passes_used = pass;
    core::Rng rng(pass_stream_seed(params, pass));
    for (std::size_t s = 0; s < strands.size(); ++s) {
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
    if (pass == 1) {
      for (std::size_t s = 0; s < strands.size(); ++s) {
        starved[s] = static_cast<char>(!lost[s] && coverage[s] == 0);
      }
    }
  }
  for (std::size_t s = 0; s < strands.size(); ++s) {
    if (starved[s] && coverage[s] > 0) ++result.rescued_strands;
    if (lost[s] || coverage[s] == 0) ++result.unrecovered_strands;
  }
  return result;
}

}  // namespace icsc::hetero::dna
