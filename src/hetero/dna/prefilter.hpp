// Pre-alignment filters for edit-distance clustering (Sec. VI).
//
// "Alternative solutions are based on approximated distance techniques
// between strings [33], [34]" -- Shouji and SneakySnake are pre-alignment
// filters that cheaply reject pairs whose edit distance must exceed a
// threshold, so the expensive DP/bit-parallel kernel only runs on
// candidates. We implement the two standard CPU-friendly filters:
//   - length filter: | |a| - |b| | > threshold rejects immediately,
//   - q-gram filter: two strings within edit distance t share at least
//     max(|a|,|b|) - q + 1 - q*t q-grams (the q-gram lemma); counting
//     4^q-bucket histograms gives a lower bound on the distance.
// Both are *complete* (never reject a true match), which the tests verify;
// cluster_reads runs them ahead of its exact kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {

/// Lower bound on edit distance from the length difference.
int length_lower_bound(const Strand& a, const Strand& b);

/// q-gram-lemma lower bound on the edit distance: each edit destroys at
/// most q q-grams, so d >= (shared-deficit) / q. Throws core::Error unless
/// q is in [1, 8].
int qgram_lower_bound(const Strand& a, const Strand& b, int q);

/// 4^q-bucket q-gram histogram of a strand (q in [1, 8] keeps the table
/// <= 64Ki buckets; throws core::Error otherwise). Cache these per cluster
/// representative so repeated bound evaluations cost one L1 pass instead
/// of a rebuild.
std::vector<std::uint16_t> qgram_histogram(const Strand& s, int q);

/// The q-gram lower bound evaluated on two precomputed histograms:
/// L1(ha, hb) / (2q). Throws core::Error unless q is in [1, 8] and both
/// histograms have the 4^q buckets qgram_histogram(_, q) builds.
int qgram_histogram_lower_bound(const std::vector<std::uint16_t>& ha,
                                const std::vector<std::uint16_t>& hb, int q);

}  // namespace icsc::hetero::dna
