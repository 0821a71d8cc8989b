#include "hetero/dna/cluster.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <string>

#include "core/error.hpp"
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

/// Candidates per screen block. The survivors of a block run as one Myers
/// batch: a larger block amortises the batch call over more lanes, a
/// smaller one wastes fewer lanes past the first match.
constexpr std::size_t kScanBlock = 64;

/// Reads per scan batch, one pool dispatch each. At 64 reads the phase-1
/// scan of an e2ebench dna_archival job holds about 0.3 ms of work per
/// dispatch, where a dispatch per candidate block held about 1 us and lost
/// to the serial scan. On those jobs (4 threads) 64 clustered in a median
/// 3.6 ms against 4.2 ms at 32 reads, which pays twice the dispatches, and
/// 4.5 ms at 128, which leaves more of the scan to the serial phase 2 when
/// a strand's reads arrive together.
constexpr std::size_t kReadBatch = 64;

constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

/// Throws unless every read index of `cluster` addresses one of `reads`.
void check_read_indices(const char* where, const Cluster& cluster,
                        std::size_t reads) {
  for (const std::size_t idx : cluster.read_indices) {
    if (idx >= reads) {
      throw core::Error(where, "read index out of range",
                        "index " + std::to_string(idx) + " of " +
                            std::to_string(reads) + " reads");
    }
  }
}

/// One read's greedy scan, carried from phase 1 into phase 2. Cache-line
/// aligned: pool threads scanning neighbouring reads write their own
/// slots.
struct alignas(64) ReadScan {
  std::vector<std::uint16_t> hist;     // q-gram histogram of the read
  std::optional<MyersPattern> pattern;  // match masks, built once per read
  std::size_t match = kNoMatch;        // cluster joined, once found
  std::uint64_t pair_comparisons = 0;
  std::uint64_t screened_out = 0;
  std::uint64_t dp_cells_updated = 0;
};

/// Scratch of the block scan: one per pool chunk, one for phase 2.
struct ScanScratch {
  std::array<bool, kScanBlock> rejected{};
  std::vector<const Strand*> survivors;
  std::vector<int> survivor_dist;
};

/// Scans clusters [begin, end) in order for the first one `bases` joins,
/// booking into `scan` the work of every candidate up to and including that
/// match. Each block is screened whole, then folded in cluster order:
/// evaluations past the match are discarded, so clusters AND counters equal
/// the one-candidate-at-a-time scan's. Reads `clusters` and `rep_hists`
/// only.
void scan_clusters(const Strand& bases, ReadScan& scan,
                   const std::vector<Cluster>& clusters,
                   const std::vector<std::vector<std::uint16_t>>& rep_hists,
                   std::size_t begin, std::size_t end, int band,
                   int threshold, ScanScratch& scratch) {
  std::uint64_t pairs = 0;
  std::uint64_t screened = 0;
  std::uint64_t cells = 0;
  std::size_t match = kNoMatch;
  for (std::size_t base = begin; base < end && match == kNoMatch;
       base += kScanBlock) {
    const std::size_t count = std::min(kScanBlock, end - base);
    // Stage 1: lower-bound screens (d >= |len(a) - len(b)| and
    // d >= L1(qgram hists) / (2q)); a bound beyond the band already
    // decides the banded-contract answer, exactly as the banded kernel
    // would have returned band + 1.
    scratch.survivors.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const Strand& rep = clusters[base + i].representative;
      scratch.rejected[i] =
          length_lower_bound(bases, rep) > band ||
          qgram_histogram_lower_bound(scan.hist, rep_hists[base + i],
                                      kScreenQ) > band;
      if (!scratch.rejected[i]) scratch.survivors.push_back(&rep);
    }
    // Stage 2: one bit-parallel banded-Myers batch over the survivors,
    // lanes spanning candidate representatives.
    scratch.survivor_dist.resize(scratch.survivors.size());
    levenshtein_myers_banded_batch(*scan.pattern, scratch.survivors.data(),
                                   scratch.survivors.size(), band,
                                   scratch.survivor_dist.data());
    std::size_t next_survivor = 0;
    for (std::size_t i = 0; i < count; ++i) {
      ++pairs;
      int distance = band + 1;
      if (scratch.rejected[i]) {
        ++screened;
      } else {
        distance = scratch.survivor_dist[next_survivor++];
        cells += myers_cells(bases, clusters[base + i].representative);
      }
      if (distance <= threshold) {
        match = base + i;
        break;
      }
    }
  }
  scan.match = match;
  scan.pair_comparisons += pairs;
  scan.screened_out += screened;
  scan.dp_cells_updated += cells;
}

}  // namespace

ClusterResult cluster_reads(const std::vector<Read>& reads,
                            const ClusterParams& params) {
  ICSC_TRACE_SPAN("dna/cluster_reads");
  ClusterResult result;
  auto& clusters = result.clusters;
  const int band = join_band(params);
  // Representative q-gram histograms, computed once per cluster (founding
  // read) instead of once per candidate pair.
  std::vector<std::vector<std::uint16_t>> rep_hists;
  std::vector<ReadScan> scans(std::min(kReadBatch, reads.size()));
  ScanScratch serial_scratch;
  for (std::size_t first = 0; first < reads.size(); first += kReadBatch) {
    const std::size_t count = std::min(kReadBatch, reads.size() - first);
    // Phase 1, on the pool: every read of the batch scans the clusters
    // founded before the batch. Nothing writes them until phase 2.
    const std::size_t known = clusters.size();
    core::parallel_for(0, count, 1, [&](std::size_t b, std::size_t e) {
      ScanScratch scratch;
      for (std::size_t i = b; i < e; ++i) {
        const Strand& bases = reads[first + i].bases;
        ReadScan& scan = scans[i];
        scan = ReadScan{};
        scan.hist = qgram_histogram(bases, kScreenQ);
        scan.pattern.emplace(bases);
        scan_clusters(bases, scan, clusters, rep_hists, 0, known, band,
                      params.distance_threshold, scratch);
      }
    });
    // Phase 2, in read order: a read still unmatched goes on over the
    // clusters founded earlier in its own batch, then joins or founds one.
    // Serially a read also visits the pre-batch clusters first and then
    // these, so clusters and counters equal the read-at-a-time scan's.
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t r = first + i;
      ReadScan& scan = scans[i];
      if (scan.match == kNoMatch) {
        scan_clusters(reads[r].bases, scan, clusters, rep_hists, known,
                      clusters.size(), band, params.distance_threshold,
                      serial_scratch);
      }
      result.pair_comparisons += scan.pair_comparisons;
      result.screened_out += scan.screened_out;
      result.dp_cells_updated += scan.dp_cells_updated;
      if (scan.match == kNoMatch) {
        clusters.push_back({{r}, reads[r].bases});
        rep_hists.push_back(std::move(scan.hist));
      } else {
        clusters[scan.match].read_indices.push_back(r);
      }
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
  for (const auto& cluster : result.clusters) {
    if (cluster.read_indices.empty()) {
      throw core::Error("dna::evaluate_clusters", "empty cluster");
    }
    check_read_indices("dna::evaluate_clusters", cluster, reads.size());
    for (const std::size_t idx : cluster.read_indices) {
      if (reads[idx].origin >= source_strands) {
        throw core::Error("dna::evaluate_clusters", "read origin out of range",
                          "origin " + std::to_string(reads[idx].origin) +
                              " of " + std::to_string(source_strands) +
                              " source strands");
      }
    }
  }
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

/// Out-of-band DP value: larger than any edit distance, and safe to + 1.
constexpr int kFar = std::numeric_limits<int>::max() / 2;

/// Aligns `read` to `medoid` by DP restricted to |i - j| <= band, in `dp`
/// (reused across calls), and adds its votes. With band >= d(medoid, read)
/// the backtrace is the full DP's: every cell it visits has a prefix cost
/// <= d, so it lies in the band and its banded value is exact; every
/// predecessor test that succeeds in the full DP reads a value <= d, so
/// that cell is in band and exact too; and a banded value is never below
/// the full DP's, so a test that fails there fails here.
void vote_alignment(const Strand& medoid, const Strand& read, int band,
                    std::vector<int>& dp, Votes& votes) {
  const auto n = static_cast<int>(medoid.size());
  const auto m = static_cast<int>(read.size());
  // Row i holds columns j in [i - band - 1, i + band + 1]; the two edge
  // slots and every column outside [0, m] stay kFar.
  const auto stride = static_cast<std::size_t>(2 * band + 3);
  dp.assign((medoid.size() + 1) * stride, kFar);
  // cell(i, j): distance between medoid[0,i) and read[0,j).
  auto cell = [&](int i, int j) -> int& {
    return dp[static_cast<std::size_t>(i) * stride +
              static_cast<std::size_t>(j - i + band + 1)];
  };
  for (int i = 0; i <= n; ++i) {
    const int lo = std::max(0, i - band);
    const int hi = std::min(m, i + band);
    for (int j = lo; j <= hi; ++j) {
      if (i == 0 || j == 0) {
        cell(i, j) = i + j;
        continue;
      }
      const int sub =
          cell(i - 1, j - 1) + (medoid[i - 1] == read[j - 1] ? 0 : 1);
      cell(i, j) = std::min({sub, cell(i - 1, j) + 1, cell(i, j - 1) + 1});
    }
  }
  // Backtrace, preferring diagonal moves (keeps votes aligned on matches).
  int i = n, j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 &&
        cell(i, j) ==
            cell(i - 1, j - 1) + (medoid[i - 1] == read[j - 1] ? 0 : 1)) {
      votes.base_votes[i - 1][static_cast<std::uint8_t>(read[j - 1])] += 1;
      --i;
      --j;
    } else if (j > 0 && cell(i, j) == cell(i, j - 1) + 1) {
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
  check_read_indices("dna::call_consensus", cluster, reads.size());
  const auto& members = cluster.read_indices;
  if (members.empty()) return {};
  if (members.size() == 1) return reads[members.front()].bases;

  // Exact pairwise distances, each unordered pair once: one Myers pattern
  // per member against the later members. At a band >= the longest member
  // the banded kernel never abandons, so every distance is exact.
  const std::size_t k = members.size();
  std::vector<const Strand*> strands(k);
  std::size_t longest = 0;
  for (std::size_t c = 0; c < k; ++c) {
    strands[c] = &reads[members[c]].bases;
    longest = std::max(longest, strands[c]->size());
  }
  std::vector<int> dist(k * k, 0);
  for (std::size_t c = 0; c + 1 < k; ++c) {
    int* row = dist.data() + c * k;
    levenshtein_myers_banded_batch(MyersPattern(*strands[c]),
                                   strands.data() + c + 1, k - c - 1,
                                   static_cast<int>(longest), row + c + 1);
    for (std::size_t o = c + 1; o < k; ++o) dist[o * k + c] = row[o];
  }
  // Medoid: member with the minimum total distance to the others; the
  // argmin keeps the earliest minimum. A repeated index adds d = 0.
  std::size_t medoid_pos = 0;
  long best_total = std::numeric_limits<long>::max();
  for (std::size_t c = 0; c < k; ++c) {
    long total = 0;
    for (std::size_t o = 0; o < k; ++o) total += dist[c * k + o];
    if (total < best_total) {
      best_total = total;
      medoid_pos = c;
    }
  }
  const Strand& medoid = *strands[medoid_pos];

  // Each member is aligned within its exact distance to the medoid.
  Votes votes(medoid.size());
  std::vector<int> dp;
  for (std::size_t c = 0; c < k; ++c) {
    vote_alignment(medoid, *strands[c], dist[c * k + medoid_pos], dp, votes);
  }

  Strand consensus;
  consensus.reserve(medoid.size());
  const int majority = static_cast<int>(k) / 2 + 1;
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
