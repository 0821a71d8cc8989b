// Equivalence tests for the two-stage DNA distance path: the banded
// Myers/Hyyro bit-parallel kernel must honour the levenshtein_banded
// contract on randomized strands (exact distance when <= band, band + 1
// otherwise), and the screened cluster_reads must produce clusters
// bit-identical to the unscreened banded-DP cluster_reads_reference while
// actually screening pairs.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/edit_distance.hpp"
#include "hetero/dna/encoding.hpp"
#include "hetero/dna/prefilter.hpp"
#include "dna_read_sets.hpp"

namespace dna = icsc::hetero::dna;
namespace core = icsc::core;

namespace {

dna::Strand random_strand(std::mt19937& rng, std::size_t length) {
  std::uniform_int_distribution<int> base(0, 3);
  dna::Strand s(length);
  for (auto& b : s) b = static_cast<dna::Base>(base(rng));
  return s;
}

/// Random strands plus mutated copies: a mix of near pairs (within band)
/// and far pairs (unrelated strands, band exceeded).
std::vector<dna::Strand> strand_pool(std::mt19937& rng) {
  std::vector<dna::Strand> pool;
  std::uniform_int_distribution<int> length(0, 96);
  for (int i = 0; i < 24; ++i) pool.push_back(random_strand(rng, length(rng)));
  dna::ChannelParams noisy;
  noisy.substitution_rate = 0.05;
  noisy.insertion_rate = 0.02;
  noisy.deletion_rate = 0.02;
  core::Rng channel_rng(99);
  for (int i = 0; i < 8; ++i) {
    pool.push_back(dna::corrupt_strand(pool[i], noisy, channel_rng));
  }
  return pool;
}

void expect_identical(const dna::ClusterResult& a, const dna::ClusterResult& b) {
  EXPECT_EQ(a.pair_comparisons, b.pair_comparisons);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].read_indices, b.clusters[c].read_indices)
        << "cluster " << c;
    EXPECT_EQ(a.clusters[c].representative, b.clusters[c].representative)
        << "cluster " << c;
  }
}

/// Small noisy read set: read-to-representative distances of ~10 straddle
/// the default threshold, so join decisions land on both sides of it.
dna::ReadSet golden_reads(std::uint64_t seed) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::vector<dna::Strand> strands;
  for (int i = 0; i < 8; ++i) strands.push_back(random_strand(rng, 80));
  dna::ChannelParams params;
  params.substitution_rate = 0.03;
  params.insertion_rate = 0.015;
  params.deletion_rate = 0.015;
  params.mean_coverage = 4.0;
  params.seed = seed;
  return dna::simulate_channel(strands, params);
}

dna::ReadSet workload(std::uint64_t seed) {
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::vector<dna::Strand> strands;
  for (int i = 0; i < 24; ++i) strands.push_back(random_strand(rng, 80));
  dna::ChannelParams params;
  params.mean_coverage = 5.0;
  params.seed = seed;
  return dna::simulate_channel(strands, params);
}

}  // namespace

TEST(ScreenedDistance, MyersBandedMatchesBandedContractOnRandomPairs) {
  std::mt19937 rng(2026);
  const auto pool = strand_pool(rng);
  for (const int band : {0, 1, 4, 12, 40}) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i; j < pool.size(); ++j) {
        const int full = dna::levenshtein_full(pool[i], pool[j]);
        const int expected = full <= band ? full : band + 1;
        ASSERT_EQ(dna::levenshtein_myers_banded(pool[i], pool[j], band),
                  expected)
            << "pair (" << i << ", " << j << ") band " << band << " |a|="
            << pool[i].size() << " |b|=" << pool[j].size();
        ASSERT_EQ(dna::levenshtein_banded(pool[i], pool[j], band), expected)
            << "banded DP diverged from full DP at pair (" << i << ", " << j
            << ") band " << band;
      }
    }
  }
}

TEST(ScreenedDistance, MyersBandedHandlesEmptyAndDegenerate) {
  const dna::Strand empty;
  const dna::Strand acgt = dna::strand_from_string("ACGT");
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, empty, 3), 0);
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, acgt, 4), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, empty, 4), 4);
  // Length difference alone exceeds the band.
  EXPECT_EQ(dna::levenshtein_myers_banded(empty, acgt, 3), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, empty, 3), 4);
  EXPECT_EQ(dna::levenshtein_myers_banded(acgt, acgt, 1), 0);
  // Identical long strands cross a 64-bit word boundary.
  const dna::Strand longer = dna::strand_from_string(
      std::string(70, 'A') + std::string(70, 'C'));
  EXPECT_EQ(dna::levenshtein_myers_banded(longer, longer, 2), 0);
}

TEST(ScreenedDistance, QgramHistogramBoundNeverExceedsTrueDistance) {
  std::mt19937 rng(7);
  const auto pool = strand_pool(rng);
  for (const int q : {2, 4}) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto hi = dna::qgram_histogram(pool[i], q);
      for (std::size_t j = i; j < pool.size(); ++j) {
        const auto hj = dna::qgram_histogram(pool[j], q);
        const int bound = dna::qgram_histogram_lower_bound(hi, hj, q);
        const int exact = dna::levenshtein_full(pool[i], pool[j]);
        ASSERT_LE(bound, exact)
            << "q-gram bound overestimated pair (" << i << ", " << j
            << ") at q=" << q;
      }
    }
  }
}

TEST(ScreenedDistance, ClusteringGoldenOnSeededReadSets) {
  // Pinned greedy-scan outcomes at default params: label[r] is the index
  // of the cluster read r joined (clusters are numbered by founding read,
  // members listed in read order).
  struct Golden {
    std::uint64_t seed;
    std::uint64_t pair_comparisons;
    std::vector<std::size_t> labels;
  };
  const Golden goldens[] = {
      {101, 375, {0,  1,  1,  0,  0,  2,  3,  4,  3,  3,  5,  6,  7,  8,
                  8,  9,  9,  9,  9,  10, 11, 10, 10, 10, 10, 10, 12, 13,
                  13, 13, 14, 12, 13, 13, 15, 15, 15, 15, 15, 16}},
      {202, 173, {0, 1, 1, 1, 2, 1, 3, 4, 5,  5,  5,  6,  7,
                  6, 7, 8, 9, 9, 9, 9, 10, 10, 10, 10, 10, 11}},
      {303, 380, {0,  1,  2,  3,  1,  4,  4,  4,  5,  5,  5,  6,  7,
                  8,  9,  10, 10, 10, 10, 10, 10, 11, 11, 11, 11, 12,
                  13, 14, 13, 15, 12, 16, 16, 16, 16, 16, 16, 16}},
  };
  for (const auto& golden : goldens) {
    const auto reads = golden_reads(golden.seed);
    ASSERT_EQ(reads.reads.size(), golden.labels.size()) << golden.seed;
    std::vector<std::vector<std::size_t>> want;
    for (std::size_t r = 0; r < golden.labels.size(); ++r) {
      if (golden.labels[r] == want.size()) want.emplace_back();
      want[golden.labels[r]].push_back(r);
    }
    const auto got = dna::cluster_reads(reads.reads, dna::ClusterParams{});
    EXPECT_EQ(got.pair_comparisons, golden.pair_comparisons) << golden.seed;
    ASSERT_EQ(got.clusters.size(), want.size()) << golden.seed;
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got.clusters[c].read_indices, want[c])
          << "seed " << golden.seed << " cluster " << c;
    }
  }

  // e2ebench-size jobs (2 KiB payload, 16-byte chunks, coverage 8: about
  // 1,000 reads in 128 clusters) span many scan batches. In channel order
  // nearly every read's cluster is founded inside its own batch; shuffled,
  // most reads join a cluster founded in an earlier batch. The last set has an
  // odd read count, so no power-of-two batch size divides it. Pinned: the
  // cluster count, the three work counters and the FNV-1a of the labels.
  struct LargeGolden {
    const char* name;
    std::vector<dna::Read> reads;
    std::size_t read_count;
    std::size_t clusters;
    std::uint64_t pair_comparisons;
    std::uint64_t screened_out;
    std::uint64_t dp_cells_updated;
    std::uint64_t label_hash;
  };
  const auto job1 = dna::test::archival_reads(1, 2048, 8.0);
  const auto job2 = dna::test::archival_reads(2, 2048, 8.0);
  const LargeGolden large_goldens[] = {
      {"job 1, channel order", job1, 1040, 128, 69213, 65113, 56649728,
       0x3ef581c00d3de174ULL},
      {"job 1, shuffled", dna::test::shuffled(job1, 7), 1040, 128, 62351,
       58653, 51072640, 0x8e6734deb620279eULL},
      {"job 2, channel order", job2, 1028, 128, 65175, 60623, 62931072,
       0x76d07e6a5dda3bdcULL},
      {"job 2, shuffled", dna::test::shuffled(job2, 8), 1028, 128, 62305,
       57998, 59493632, 0x631aedb5754f6972ULL},
      {"odd count", dna::test::archival_reads(3, 1200, 6.0), 439, 75, 16537,
       15061, 20383104, 0x755e74f45ee573c2ULL},
  };
  for (const auto& golden : large_goldens) {
    const auto got = dna::cluster_reads(golden.reads, dna::ClusterParams{});
    EXPECT_EQ(golden.reads.size(), golden.read_count) << golden.name;
    EXPECT_EQ(got.clusters.size(), golden.clusters) << golden.name;
    EXPECT_EQ(got.pair_comparisons, golden.pair_comparisons) << golden.name;
    EXPECT_EQ(got.screened_out, golden.screened_out) << golden.name;
    EXPECT_EQ(got.dp_cells_updated, golden.dp_cells_updated) << golden.name;
    EXPECT_EQ(dna::test::label_hash(got, golden.reads.size()),
              golden.label_hash)
        << golden.name;
  }
}

TEST(ScreenedDistance, ClusteringBitIdenticalAcrossKernels) {
  const auto reads = workload(11);
  const dna::ClusterParams params;
  const auto seed = dna::cluster_reads_reference(reads.reads, params);
  const auto fast = dna::cluster_reads(reads.reads, params);
  expect_identical(seed, fast);
  EXPECT_EQ(seed.screened_out, 0u);
  // The unrelated-strand majority of pairs must trip the lower bounds.
  EXPECT_GT(fast.screened_out, 0u);
  EXPECT_LT(fast.dp_cells_updated, seed.dp_cells_updated);

  core::ScopedSerial serial;
  const auto fast_serial = dna::cluster_reads(reads.reads, params);
  expect_identical(fast, fast_serial);
  EXPECT_EQ(fast.screened_out, fast_serial.screened_out);
  EXPECT_EQ(fast.dp_cells_updated, fast_serial.dp_cells_updated);
}

TEST(ScreenedDistance, ClusteringMatchesReferenceOnEdgeCases) {
  // No reads, one read, identical reads spanning several scan batches (all
  // join the first cluster), and the thresholds 0 (only exact copies join)
  // and -1 (nothing joins; every pair is compared).
  std::mt19937 rng(31);
  const dna::Read one{random_strand(rng, 80), 0};
  const auto reads = workload(11).reads;
  struct Case {
    const char* name;
    std::vector<dna::Read> reads;
    int threshold;
  };
  const Case cases[] = {
      {"no reads", {}, 10},
      {"one read", {one}, 10},
      {"identical reads", std::vector<dna::Read>(150, one), 10},
      {"identical reads, threshold 0", std::vector<dna::Read>(150, one), 0},
      {"threshold 0", reads, 0},
      {"threshold -1", reads, -1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    dna::ClusterParams params;
    params.distance_threshold = c.threshold;
    const auto want = dna::cluster_reads_reference(c.reads, params);
    const auto got = dna::cluster_reads(c.reads, params);
    expect_identical(want, got);
    std::size_t members = 0;
    for (const auto& cluster : got.clusters) {
      members += cluster.read_indices.size();
    }
    EXPECT_EQ(members, c.reads.size());
  }
}

TEST(ScreenedDistance, IsaSweepClusteringBitIdentical) {
  // The lane-batched Myers kernel and the SIMD q-gram screen must yield the
  // same clusters and the same screening counters on every supported ISA as
  // a forced-scalar run.
  namespace simd = core::simd;
  const auto reads = workload(23);
  const dna::ClusterParams params;
  simd::set_active_isa(simd::Isa::kScalar);
  const auto oracle = dna::cluster_reads(reads.reads, params);
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kSse4,
                              simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (!simd::isa_supported(isa)) continue;
    ASSERT_EQ(simd::set_active_isa(isa), isa);
    const auto got = dna::cluster_reads(reads.reads, params);
    expect_identical(oracle, got);
    EXPECT_EQ(oracle.screened_out, got.screened_out)
        << simd::isa_name(isa);
    EXPECT_EQ(oracle.dp_cells_updated, got.dp_cells_updated)
        << simd::isa_name(isa);
  }
  simd::set_active_isa(simd::detected_isa());
}
