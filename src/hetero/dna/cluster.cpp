#include "hetero/dna/cluster.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "hetero/dna/prefilter.hpp"

namespace icsc::hetero::dna {

namespace {

/// q-gram order of the screen: 4^4 = 256 u16 buckets per histogram, one
/// SIMD L1 pass per candidate pair.
constexpr int kScreenQ = 4;

/// Band of the screen and of the exact kernels (see ClusterParams).
int join_band(const ClusterParams& params) {
  return std::max(params.distance_threshold, 0);
}

/// Block size for the speculative candidate scan: large enough to keep the
/// pool busy, small enough to bound wasted work past the first match.
std::size_t scan_block() {
  return std::max<std::size_t>(16, 8 * core::parallel_threads());
}

}  // namespace

ClusterResult cluster_reads(const std::vector<Read>& reads,
                            const ClusterParams& params) {
  ICSC_TRACE_SPAN("dna/cluster_reads");
  ClusterResult result;
  auto& clusters = result.clusters;
  const int band = join_band(params);
  const std::size_t block = scan_block();
  // Representative q-gram histograms, computed once per cluster (founding
  // read) instead of once per candidate pair.
  std::vector<std::vector<std::uint16_t>> rep_hists;
  // Scratch reused across candidate blocks.
  std::vector<std::uint8_t> rejected;
  std::vector<const Strand*> survivors;
  std::vector<int> survivor_dist;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const Strand& bases = reads[r].bases;
    auto read_hist = qgram_histogram(bases, kScreenQ);
    // Match masks built once per read and reused across every candidate.
    const MyersPattern pattern(bases);
    bool assigned = false;
    // The serial greedy scan joins the first cluster within threshold and
    // stops. Here candidate blocks are screened in parallel, then folded
    // in cluster order: counters are booked only up to and including the
    // first match, so clusters AND work counters equal the serial scan's
    // (speculative evaluations past the match are discarded).
    for (std::size_t base = 0; base < clusters.size() && !assigned;
         base += block) {
      const std::size_t count = std::min(block, clusters.size() - base);
      // Stage 1 in parallel: lower-bound screens (d >= |len(a) - len(b)|
      // and d >= L1(qgram hists) / (2q)); a bound beyond the band already
      // decides the banded-contract answer, exactly as the banded kernel
      // would have returned band + 1.
      rejected.resize(count);
      core::parallel_for(0, count, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          const Strand& rep = clusters[base + i].representative;
          rejected[i] =
              length_lower_bound(bases, rep) > band ||
              qgram_histogram_lower_bound(read_hist, rep_hists[base + i],
                                          kScreenQ) > band;
        }
      });
      // Stage 2: one bit-parallel banded-Myers batch over the survivors,
      // lanes spanning candidate representatives.
      survivors.clear();
      for (std::size_t i = 0; i < count; ++i) {
        if (!rejected[i]) {
          survivors.push_back(&clusters[base + i].representative);
        }
      }
      survivor_dist.resize(survivors.size());
      levenshtein_myers_banded_batch(pattern, survivors.data(),
                                     survivors.size(), band,
                                     survivor_dist.data());
      std::size_t next_survivor = 0;
      for (std::size_t i = 0; i < count; ++i) {
        ++result.pair_comparisons;
        int distance = band + 1;
        if (rejected[i]) {
          ++result.screened_out;
        } else {
          distance = survivor_dist[next_survivor++];
          result.dp_cells_updated +=
              myers_cells(bases, clusters[base + i].representative);
        }
        if (distance <= params.distance_threshold) {
          clusters[base + i].read_indices.push_back(r);
          assigned = true;
          break;
        }
      }
    }
    if (!assigned) {
      clusters.push_back({{r}, bases});
      rep_hists.push_back(std::move(read_hist));
    }
  }
  ICSC_TRACE_COUNT("dna.pair_comparisons", result.pair_comparisons);
  ICSC_TRACE_COUNT("dna.dp_cells", result.dp_cells_updated);
  ICSC_TRACE_COUNT("dna.screened_out", result.screened_out);
  return result;
}

ClusterResult cluster_reads_reference(const std::vector<Read>& reads,
                                      const ClusterParams& params) {
  ClusterResult result;
  const int band = join_band(params);
  for (std::size_t r = 0; r < reads.size(); ++r) {
    const Strand& bases = reads[r].bases;
    bool assigned = false;
    for (auto& cluster : result.clusters) {
      ++result.pair_comparisons;
      result.dp_cells_updated +=
          static_cast<std::uint64_t>(bases.size()) * (2 * band + 1);
      if (levenshtein_banded(bases, cluster.representative, band) <=
          params.distance_threshold) {
        cluster.read_indices.push_back(r);
        assigned = true;
        break;
      }
    }
    if (!assigned) result.clusters.push_back({{r}, bases});
  }
  return result;
}

ClusterQuality evaluate_clusters(const ClusterResult& result,
                                 const std::vector<Read>& reads,
                                 std::size_t source_strands) {
  ClusterQuality quality;
  if (result.clusters.empty() || source_strands == 0) return quality;
  std::vector<bool> covered(source_strands, false);
  std::size_t pure = 0;
  for (const auto& cluster : result.clusters) {
    const std::size_t origin = reads[cluster.read_indices.front()].origin;
    bool is_pure = true;
    for (const std::size_t idx : cluster.read_indices) {
      if (reads[idx].origin != origin) {
        is_pure = false;
        break;
      }
    }
    if (is_pure) {
      ++pure;
      covered[origin] = true;
    }
  }
  quality.purity =
      static_cast<double>(pure) / static_cast<double>(result.clusters.size());
  std::size_t covered_count = 0;
  for (const bool c : covered) covered_count += c ? 1 : 0;
  quality.origin_coverage =
      static_cast<double>(covered_count) / static_cast<double>(source_strands);
  return quality;
}

namespace {

/// Votes collected against the medoid coordinate system.
struct Votes {
  // For each medoid position: counts of A/C/G/T seen aligned there, plus
  // deletions (read skips the position).
  std::vector<std::array<int, 4>> base_votes;
  std::vector<int> deletion_votes;
  // For each gap (before position i, i in [0, n]): votes for an inserted
  // base and which base.
  std::vector<std::array<int, 4>> insertion_votes;

  explicit Votes(std::size_t n)
      : base_votes(n, {0, 0, 0, 0}),
        deletion_votes(n, 0),
        insertion_votes(n + 1, {0, 0, 0, 0}) {}
};

/// Aligns `read` to `medoid` by full DP and adds its votes.
void vote_alignment(const Strand& medoid, const Strand& read, Votes& votes) {
  const std::size_t n = medoid.size();
  const std::size_t m = read.size();
  // dp[i][j]: distance between medoid[0,i) and read[0,j).
  std::vector<std::vector<int>> dp(n + 1, std::vector<int>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) dp[i][0] = static_cast<int>(i);
  for (std::size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<int>(j);
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const int sub = dp[i - 1][j - 1] + (medoid[i - 1] == read[j - 1] ? 0 : 1);
      dp[i][j] = std::min({sub, dp[i - 1][j] + 1, dp[i][j - 1] + 1});
    }
  }
  // Backtrace, preferring diagonal moves (keeps votes aligned on matches).
  std::size_t i = n, j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        dp[i][j] == dp[i - 1][j - 1] + (medoid[i - 1] == read[j - 1] ? 0 : 1)) {
      votes.base_votes[i - 1][static_cast<std::uint8_t>(read[j - 1])] += 1;
      --i;
      --j;
    } else if (j > 0 && dp[i][j] == dp[i][j - 1] + 1) {
      // Read has an extra base: insertion in the gap before medoid position i.
      votes.insertion_votes[i][static_cast<std::uint8_t>(read[j - 1])] += 1;
      --j;
    } else {
      votes.deletion_votes[i - 1] += 1;
      --i;
    }
  }
}

}  // namespace

Strand call_consensus(const std::vector<Read>& reads, const Cluster& cluster) {
  const auto& members = cluster.read_indices;
  if (members.empty()) return {};
  if (members.size() == 1) return reads[members.front()].bases;

  // Medoid: member with the minimum total distance to the others. The
  // all-pairs totals are independent per candidate; the serial argmin over
  // the ordered totals keeps the earliest minimum, as before.
  const auto totals =
      core::parallel_map(members.size(), 4, [&](std::size_t c) {
        long total = 0;
        for (const std::size_t other : members) {
          if (other == members[c]) continue;
          total +=
              levenshtein_myers(reads[members[c]].bases, reads[other].bases);
        }
        return total;
      });
  std::size_t medoid_index = members.front();
  long best_total = std::numeric_limits<long>::max();
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (totals[c] < best_total) {
      best_total = totals[c];
      medoid_index = members[c];
    }
  }
  const Strand& medoid = reads[medoid_index].bases;

  Votes votes(medoid.size());
  int voters = 0;
  for (const std::size_t idx : members) {
    vote_alignment(medoid, reads[idx].bases, votes);
    ++voters;
  }

  Strand consensus;
  consensus.reserve(medoid.size());
  const int majority = voters / 2 + 1;
  auto emit_insertions = [&](std::size_t gap) {
    const auto& iv = votes.insertion_votes[gap];
    const int total = iv[0] + iv[1] + iv[2] + iv[3];
    if (total >= majority) {
      const auto best =
          std::max_element(iv.begin(), iv.end()) - iv.begin();
      consensus.push_back(static_cast<Base>(best));
    }
  };
  for (std::size_t pos = 0; pos < medoid.size(); ++pos) {
    emit_insertions(pos);
    if (votes.deletion_votes[pos] >= majority) continue;  // majority deletes
    const auto& bv = votes.base_votes[pos];
    const auto best = std::max_element(bv.begin(), bv.end()) - bv.begin();
    if (bv[best] > 0) {
      consensus.push_back(static_cast<Base>(best));
    }
  }
  emit_insertions(medoid.size());
  return consensus;
}

std::vector<Strand> call_all_consensus(const std::vector<Read>& reads,
                                       const std::vector<Cluster>& clusters) {
  // Consensus calls are independent per cluster; parallel_map keeps the
  // output in cluster order.
  ICSC_TRACE_SPAN("dna/consensus");
  ICSC_TRACE_COUNT("dna.consensus_calls", clusters.size());
  return core::parallel_map(clusters.size(), 1, [&](std::size_t c) {
    return call_consensus(reads, clusters[c]);
  });
}

}  // namespace icsc::hetero::dna
