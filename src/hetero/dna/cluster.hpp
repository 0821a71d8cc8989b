// Read clustering and consensus calling (Sec. VI, Fig. 6b "reads clustering"
// and "consensus & decoding").
//
// Decoding DNA storage requires grouping the sequencer's reads by source
// strand ("Clustering Billions of Reads for DNA Data Storage" [32]) and
// calling a consensus strand per cluster. We implement greedy star
// clustering with an edit-distance threshold -- the kernel the FPGA
// accelerator of [35] speeds up -- and an alignment-based consensus voter.
#pragma once

#include <cstdint>
#include <vector>

#include "hetero/dna/channel.hpp"
#include "hetero/dna/edit_distance.hpp"

namespace icsc::hetero::dna {

struct ClusterParams {
  /// A read joins a cluster if d(read, representative) <= this. The
  /// lower-bound screen and the banded kernel both run at band
  /// max(distance_threshold, 0): the smallest band under which every join
  /// decision is exact, since a distance beyond it comes back as band + 1
  /// and clustering keeps no distances.
  int distance_threshold = 10;
};

struct Cluster {
  std::vector<std::size_t> read_indices;  // into the ReadSet
  Strand representative;                  // first read assigned
};

struct ClusterResult {
  std::vector<Cluster> clusters;
  std::uint64_t pair_comparisons = 0;  // join decisions taken
  std::uint64_t dp_cells_updated = 0;  // exact-kernel work (CUPS numerator)
  /// Pairs decided by a lower bound alone (counted in pair_comparisons,
  /// but no exact-kernel cells were updated for them).
  std::uint64_t screened_out = 0;
};

/// Greedy star clustering: each read joins the first cluster whose
/// representative is within the threshold, else founds a new cluster.
/// Pre-alignment filters ([33], [34]; hetero/dna/prefilter.hpp) -- length
/// difference and q-gram lower bounds -- decide band-exceeding pairs
/// without touching DP; the survivors of each fixed-size candidate block
/// run one bit-parallel banded Myers batch. Work past a block's first match
/// is discarded. Reads are scanned in fixed-size batches, in two phases:
/// on the pool, every read of the batch scans the clusters founded before
/// the batch, which nothing writes meanwhile; then, in read order on the
/// calling thread, a read with no match yet scans the clusters founded
/// earlier in its own batch and joins or founds one. A read thus visits
/// the clusters in the serial order, so clusters and counters equal the
/// one-read, one-candidate-at-a-time scan's for every thread count.
ClusterResult cluster_reads(const std::vector<Read>& reads,
                            const ClusterParams& params);

/// The equivalence oracle for cluster_reads: the serial, unscreened greedy
/// scan over levenshtein_banded at the same band. Same clusters and
/// pair_comparisons by the banded contract; screened_out stays 0 and
/// dp_cells_updated books the banded-DP cells.
ClusterResult cluster_reads_reference(const std::vector<Read>& reads,
                                      const ClusterParams& params);

/// Fraction of clusters whose member reads all share one origin strand
/// (purity) and fraction of origins recovered by at least one pure cluster.
struct ClusterQuality {
  double purity = 0.0;
  double origin_coverage = 0.0;
};

/// Throws core::Error if a cluster is empty, a read index is out of range
/// or a member's origin is >= source_strands (unless there are no clusters
/// or source_strands is 0, which give zero quality).
ClusterQuality evaluate_clusters(const ClusterResult& result,
                                 const std::vector<Read>& reads,
                                 std::size_t source_strands);

/// Alignment-based consensus: every member read is aligned to the medoid
/// (the member with the least total edit distance to the others, from one
/// exact Myers pass per unordered pair) and votes per medoid position
/// (substitution votes, deletion votes, insertion votes after a position);
/// the majority outcome at each position yields the consensus strand.
/// Each alignment runs in the band |i - j| <= d(member, medoid), which
/// keeps the full DP's backtrace exactly. Exact recovery is expected at
/// low error rates with >= 3 member reads. Throws core::Error if a read
/// index is out of range.
Strand call_consensus(const std::vector<Read>& reads, const Cluster& cluster);

/// Consensus for every cluster, one cluster per pool task, in cluster
/// order. Throws core::Error if a read index is out of range.
std::vector<Strand> call_all_consensus(const std::vector<Read>& reads,
                                       const std::vector<Cluster>& clusters);

}  // namespace icsc::hetero::dna
