#include "hetero/dna/prefilter.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/encoding.hpp"
#include "dna_read_sets.hpp"

namespace icsc::hetero::dna {
namespace {

Strand random_strand(std::size_t n, icsc::core::Rng& rng) {
  Strand out(n);
  for (auto& b : out) b = static_cast<Base>(rng.below(4));
  return out;
}

TEST(LengthBound, NeverExceedsTrueDistance) {
  icsc::core::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = random_strand(20 + rng.below(80), rng);
    const auto b = random_strand(20 + rng.below(80), rng);
    EXPECT_LE(length_lower_bound(a, b), levenshtein_full(a, b));
  }
}

TEST(QgramBound, NeverExceedsTrueDistance) {
  icsc::core::Rng rng(5);
  ChannelParams noise;
  noise.substitution_rate = 0.05;
  noise.insertion_rate = 0.02;
  noise.deletion_rate = 0.02;
  for (const int q : {2, 3, 4, 6}) {
    for (int trial = 0; trial < 60; ++trial) {
      const auto a = random_strand(50 + rng.below(100), rng);
      const auto b = corrupt_strand(a, noise, rng);
      EXPECT_LE(qgram_lower_bound(a, b, q), levenshtein_full(a, b))
          << "q=" << q;
    }
    // Also for unrelated strings (large distances).
    for (int trial = 0; trial < 20; ++trial) {
      const auto a = random_strand(80, rng);
      const auto b = random_strand(80, rng);
      EXPECT_LE(qgram_lower_bound(a, b, q), levenshtein_full(a, b));
    }
  }
}

TEST(QgramBound, DetectsDissimilarStrings) {
  icsc::core::Rng rng(7);
  int positive = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_strand(100, rng);
    const auto b = random_strand(100, rng);
    if (qgram_lower_bound(a, b, 4) > 10) ++positive;
  }
  // Random 100-nt strands are far apart; the filter must usually see it.
  EXPECT_GT(positive, 35);
}

TEST(QgramBound, ZeroForIdenticalStrings) {
  icsc::core::Rng rng(9);
  const auto a = random_strand(120, rng);
  EXPECT_EQ(qgram_lower_bound(a, a, 4), 0);
}

TEST(QgramBound, RejectsOutOfRangeOrder) {
  icsc::core::Rng rng(10);
  const auto a = random_strand(40, rng);
  for (const int q : {-1, 0, 9}) {
    EXPECT_THROW(qgram_histogram(a, q), core::Error) << "q=" << q;
    EXPECT_THROW(qgram_lower_bound(a, a, q), core::Error) << "q=" << q;
  }
  const auto h = qgram_histogram(a, 4);
  EXPECT_THROW(qgram_histogram_lower_bound(h, h, 0), core::Error);
  EXPECT_THROW(qgram_histogram_lower_bound(h, h, 9), core::Error);
}

TEST(QgramBound, RejectsMismatchedHistograms) {
  icsc::core::Rng rng(12);
  const auto a = random_strand(40, rng);
  const auto h4 = qgram_histogram(a, 4);
  const auto h3 = qgram_histogram(a, 3);
  EXPECT_THROW(qgram_histogram_lower_bound(h4, h3, 4), core::Error);
  EXPECT_THROW(qgram_histogram_lower_bound(h3, h4, 4), core::Error);
  // Equal sizes, but not the 4^q buckets of the stated q.
  EXPECT_THROW(qgram_histogram_lower_bound(h3, h3, 4), core::Error);
  EXPECT_THROW(qgram_histogram_lower_bound({}, {}, 1), core::Error);
  EXPECT_EQ(qgram_histogram_lower_bound(h3, h3, 3), 0);
}

ReadSet make_reads(std::uint64_t seed) {
  icsc::core::Rng rng(seed);
  std::vector<std::uint8_t> payload(768);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  const auto set = encode_payload(payload, 16);
  ChannelParams channel;
  channel.substitution_rate = 0.01;
  channel.insertion_rate = 0.005;
  channel.deletion_rate = 0.005;
  channel.mean_coverage = 8.0;
  channel.seed = seed + 1;
  return simulate_channel(set.strands, channel);
}

void expect_same_clusters(const ClusterResult& a, const ClusterResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].read_indices, b.clusters[c].read_indices);
    EXPECT_EQ(a.clusters[c].representative, b.clusters[c].representative);
  }
}

TEST(FilteredClustering, SameClustersAsUnfiltered) {
  const auto reads = make_reads(11);
  const ClusterParams params;
  const auto plain = cluster_reads_reference(reads.reads, params);
  const auto filtered = cluster_reads(reads.reads, params);
  // Completeness: the filters never reject a true match, so the greedy
  // assignment sequence -- and hence the clusters -- are identical.
  EXPECT_EQ(filtered.pair_comparisons, plain.pair_comparisons);
  expect_same_clusters(filtered, plain);
}

TEST(FilteredClustering, FiltersMostCandidatePairs) {
  const auto reads = make_reads(13);
  const ClusterParams params;
  const auto filtered = cluster_reads(reads.reads, params);
  ASSERT_GT(filtered.pair_comparisons, 0u);
  const double filter_rate = static_cast<double>(filtered.screened_out) /
                             static_cast<double>(filtered.pair_comparisons);
  // Most cross-cluster candidates are dissimilar -> rejected cheaply.
  EXPECT_GT(filter_rate, 0.7);
  // And the exact kernel runs far fewer times than the unfiltered scan.
  const auto plain = cluster_reads_reference(reads.reads, params);
  EXPECT_LT(filtered.pair_comparisons - filtered.screened_out,
            plain.pair_comparisons / 2);
}

TEST(FilteredClustering, ParallelScanBitIdenticalToSerial) {
  // The batched scan (phase 1 of each batch on the pool) must reproduce the
  // serial greedy clustering exactly -- assignments AND work counters -- on
  // a real pool of 2 and of 4 threads, even on 1-core hosts.
  const auto job = test::archival_reads(1, 2048, 8.0);
  const std::vector<std::vector<Read>> sets = {
      make_reads(19).reads, job, test::shuffled(job, 7),
      test::archival_reads(3, 1200, 6.0)};
  const ClusterParams params;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    ClusterResult serial;
    {
      core::ScopedSerial guard;
      serial = cluster_reads(sets[s], params);
    }
    for (const std::size_t threads : {2, 4}) {
      core::set_parallel_threads(threads);
      const auto parallel = cluster_reads(sets[s], params);
      core::set_parallel_threads(0);
      SCOPED_TRACE("set " + std::to_string(s) + ", " +
                   std::to_string(threads) + " threads");
      EXPECT_EQ(parallel.pair_comparisons, serial.pair_comparisons);
      EXPECT_EQ(parallel.screened_out, serial.screened_out);
      EXPECT_EQ(parallel.dp_cells_updated, serial.dp_cells_updated);
      expect_same_clusters(parallel, serial);
    }
  }
}

}  // namespace
}  // namespace icsc::hetero::dna
