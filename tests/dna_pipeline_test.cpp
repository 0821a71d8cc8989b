// Channel, clustering, consensus, accelerator model, and the end-to-end
// storage simulation (Sec. VI DNA experiments).
#include <gtest/gtest.h>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/edit_distance.hpp"
#include "hetero/dna/fpga_accel.hpp"
#include "hetero/dna/storage_sim.hpp"

namespace icsc::hetero::dna {
namespace {

TEST(Channel, NoiselessChannelCopiesExactly) {
  const auto set = encode_payload({1, 2, 3, 4, 5, 6, 7, 8}, 4);
  ChannelParams params;
  params.substitution_rate = 0.0;
  params.insertion_rate = 0.0;
  params.deletion_rate = 0.0;
  params.mean_coverage = 5.0;
  params.seed = 3;
  const auto reads = simulate_channel(set.strands, params);
  EXPECT_EQ(reads.substitutions, 0u);
  for (const auto& read : reads.reads) {
    EXPECT_EQ(read.bases, set.strands[read.origin]);
  }
}

TEST(Channel, ErrorCountsMatchRates) {
  icsc::core::Rng payload_rng(5);
  std::vector<std::uint8_t> payload(4000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(payload_rng.below(256));
  const auto set = encode_payload(payload, 20);
  ChannelParams params;
  params.substitution_rate = 0.01;
  params.insertion_rate = 0.005;
  params.deletion_rate = 0.005;
  params.mean_coverage = 6.0;
  params.seed = 7;
  const auto reads = simulate_channel(set.strands, params);
  std::uint64_t total_bases = 0;
  for (const auto& read : reads.reads) total_bases += read.bases.size();
  const double sub_rate =
      static_cast<double>(reads.substitutions) / static_cast<double>(total_bases);
  EXPECT_NEAR(sub_rate, 0.01, 0.002);
  const double del_rate =
      static_cast<double>(reads.deletions) / static_cast<double>(total_bases);
  EXPECT_NEAR(del_rate, 0.005, 0.002);
}

TEST(Channel, CoverageMatchesPoissonMean) {
  const auto set = encode_payload(std::vector<std::uint8_t>(2000, 42), 10);
  ChannelParams params;
  params.mean_coverage = 8.0;
  params.seed = 9;
  const auto reads = simulate_channel(set.strands, params);
  const double coverage = static_cast<double>(reads.reads.size()) /
                          static_cast<double>(set.strands.size());
  EXPECT_NEAR(coverage, 8.0, 0.5);
}

TEST(Channel, DropoutRemovesStrands) {
  const auto set = encode_payload(std::vector<std::uint8_t>(3000, 1), 10);
  ChannelParams params;
  params.mean_coverage = 5.0;
  params.dropout_rate = 0.5;
  params.seed = 11;
  const auto reads = simulate_channel(set.strands, params);
  EXPECT_GT(reads.dropped_strands, set.strands.size() / 3);
}

TEST(Channel, Deterministic) {
  const auto set = encode_payload(std::vector<std::uint8_t>(100, 7), 10);
  ChannelParams params;
  params.seed = 13;
  const auto a = simulate_channel(set.strands, params);
  const auto b = simulate_channel(set.strands, params);
  ASSERT_EQ(a.reads.size(), b.reads.size());
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    EXPECT_EQ(a.reads[i].bases, b.reads[i].bases);
  }
}

ReadSet make_read_set(std::size_t payload_bytes, double error_rate,
                      double coverage, std::uint64_t seed,
                      std::vector<Strand>* strands_out = nullptr) {
  icsc::core::Rng rng(seed);
  std::vector<std::uint8_t> payload(payload_bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  const auto set = encode_payload(payload, 16);
  if (strands_out) *strands_out = set.strands;
  ChannelParams params;
  params.substitution_rate = error_rate;
  params.insertion_rate = error_rate / 2;
  params.deletion_rate = error_rate / 2;
  params.mean_coverage = coverage;
  params.seed = seed + 1;
  return simulate_channel(set.strands, params);
}

TEST(Cluster, RecoversOriginsAtLowNoise) {
  std::vector<Strand> strands;
  const auto reads = make_read_set(512, 0.005, 8.0, 17, &strands);
  ClusterParams params;
  const auto result = cluster_reads(reads.reads, params);
  const auto quality = evaluate_clusters(result, reads.reads, strands.size());
  EXPECT_GT(quality.purity, 0.95);
  EXPECT_GT(quality.origin_coverage, 0.9);
  EXPECT_GT(result.pair_comparisons, 0u);
  EXPECT_GT(result.dp_cells_updated, 0u);
}

TEST(Cluster, SingletonReadsFormOwnClusters) {
  // With an impossible threshold nothing merges.
  const auto reads = make_read_set(128, 0.01, 3.0, 19);
  ClusterParams params;
  params.distance_threshold = -1;
  const auto result = cluster_reads(reads.reads, params);
  EXPECT_EQ(result.clusters.size(), reads.reads.size());
}

/// The greedy star scan spelled out over exact full-DP distances: the
/// independent oracle for the band both cluster_reads and
/// cluster_reads_reference derive from the threshold.
ClusterResult full_dp_clusters(const std::vector<Read>& reads,
                               int distance_threshold) {
  ClusterResult result;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    bool assigned = false;
    for (auto& cluster : result.clusters) {
      ++result.pair_comparisons;
      if (levenshtein_full(reads[r].bases, cluster.representative) <=
          distance_threshold) {
        cluster.read_indices.push_back(r);
        assigned = true;
        break;
      }
    }
    if (!assigned) result.clusters.push_back({{r}, reads[r].bases});
  }
  return result;
}

TEST(Cluster, FullDpPathAgreesWithBanded) {
  // Noisy enough that read-to-representative distances spread across
  // every threshold below, so a band narrower than the threshold would
  // mis-join pairs (and a -1 threshold must keep every read apart).
  const auto reads = make_read_set(256, 0.03, 5.0, 23);
  for (const int threshold : {-1, 0, 4, 10, 30}) {
    const auto want = full_dp_clusters(reads.reads, threshold);
    ClusterParams params;
    params.distance_threshold = threshold;
    const ClusterResult got[] = {cluster_reads(reads.reads, params),
                                 cluster_reads_reference(reads.reads, params)};
    for (const auto& result : got) {
      EXPECT_EQ(result.pair_comparisons, want.pair_comparisons)
          << "threshold " << threshold;
      ASSERT_EQ(result.clusters.size(), want.clusters.size())
          << "threshold " << threshold;
      for (std::size_t c = 0; c < want.clusters.size(); ++c) {
        EXPECT_EQ(result.clusters[c].read_indices,
                  want.clusters[c].read_indices)
            << "threshold " << threshold << " cluster " << c;
      }
    }
  }
}

TEST(Consensus, ExactRecoveryAtModerateNoise) {
  std::vector<Strand> strands;
  const auto reads = make_read_set(512, 0.01, 10.0, 29, &strands);
  const auto clusters = cluster_reads(reads.reads, ClusterParams{});
  const auto consensus = call_all_consensus(reads.reads, clusters.clusters);
  // Count how many original strands are recovered exactly.
  std::size_t exact = 0;
  for (const auto& strand : strands) {
    for (const auto& cons : consensus) {
      if (cons == strand) {
        ++exact;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(exact) / static_cast<double>(strands.size()),
            0.9);
}

TEST(Consensus, SingleReadClusterReturnsRead) {
  std::vector<Read> reads(1);
  reads[0].bases = strand_from_string("ACGTACGT");
  Cluster cluster;
  cluster.read_indices = {0};
  EXPECT_EQ(call_consensus(reads, cluster), reads[0].bases);
}

TEST(Consensus, MajorityFixesSubstitution) {
  const Strand truth = strand_from_string("ACGTACGTACGTACGTACGT");
  std::vector<Read> reads(5);
  for (auto& read : reads) read.bases = truth;
  reads[1].bases[3] = Base::A;  // one read has a substitution
  Cluster cluster;
  for (std::size_t i = 0; i < reads.size(); ++i) cluster.read_indices.push_back(i);
  EXPECT_EQ(call_consensus(reads, cluster), truth);
}

TEST(Consensus, MajorityFixesIndel) {
  const Strand truth = strand_from_string("ACGTACGTACGTACGTACGT");
  std::vector<Read> reads(5);
  for (auto& read : reads) read.bases = truth;
  reads[0].bases.erase(reads[0].bases.begin() + 5);           // deletion
  reads[2].bases.insert(reads[2].bases.begin() + 9, Base::T);  // insertion
  Cluster cluster;
  for (std::size_t i = 0; i < reads.size(); ++i) cluster.read_indices.push_back(i);
  EXPECT_EQ(call_consensus(reads, cluster), truth);
}

/// FNV-1a over every strand's bases, each strand closed by a separator
/// outside the base alphabet, so the digest pins bases, lengths and order.
std::uint64_t strands_digest(const std::vector<Strand>& strands) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (const auto& strand : strands) {
    for (const Base b : strand) mix(static_cast<std::uint8_t>(b));
    mix(0xFF);
  }
  return h;
}

std::size_t total_bases(const std::vector<Strand>& strands) {
  std::size_t total = 0;
  for (const auto& strand : strands) total += strand.size();
  return total;
}

/// Consensus on a 4-thread pool, checked equal to the serial call.
std::vector<Strand> pooled_consensus(const std::vector<Read>& reads,
                                     const std::vector<Cluster>& clusters) {
  core::set_parallel_threads(4);  // real pool even on 1-core hosts
  std::vector<Strand> serial;
  {
    core::ScopedSerial guard;
    serial = call_all_consensus(reads, clusters);
  }
  auto pooled = call_all_consensus(reads, clusters);
  core::set_parallel_threads(0);
  EXPECT_EQ(pooled, serial);
  return pooled;
}

TEST(Consensus, GoldenStrandsOnSeededClusters) {
  // Pins call_all_consensus strand by strand (through a digest) on clusters
  // cluster_reads forms at two thresholds, one with a burst-error channel.
  struct Case {
    double error_rate;
    double burst_rate;
    int threshold;
    std::uint64_t seed;
    std::size_t clusters;
    std::size_t bases;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {0.01, 0.0, 10, 31, 24, 2591, 0x3bfceca7ab8d4e68ull},
      {0.03, 0.0, 30, 37, 24, 2590, 0x39446a498197b023ull},
      {0.01, 0.3, 10, 41, 39, 4221, 0xc34dda8e269f2e27ull},
      {0.02, 0.3, 30, 43, 24, 2589, 0x3d8a8bce0a6939c3ull},
  };
  for (const auto& c : cases) {
    icsc::core::Rng rng(c.seed);
    std::vector<std::uint8_t> payload(384);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    const auto set = encode_payload(payload, 16);
    ChannelParams channel;
    channel.substitution_rate = c.error_rate;
    channel.insertion_rate = c.error_rate / 2;
    channel.deletion_rate = c.error_rate / 2;
    channel.burst_rate = c.burst_rate;
    channel.seed = c.seed + 1;
    const auto reads = simulate_channel(set.strands, channel);
    ClusterParams params;
    params.distance_threshold = c.threshold;
    const auto clusters = cluster_reads(reads.reads, params).clusters;
    const auto consensus = pooled_consensus(reads.reads, clusters);
    EXPECT_EQ(consensus.size(), c.clusters) << "seed " << c.seed;
    EXPECT_EQ(total_bases(consensus), c.bases) << "seed " << c.seed;
    EXPECT_EQ(strands_digest(consensus), c.digest) << "seed " << c.seed;
  }
}

TEST(Consensus, GoldenStrandsOnHandBuiltClusters) {
  const auto base = make_read_set(128, 0.02, 6.0, 47);
  std::vector<Read> reads = base.reads;
  ASSERT_GT(reads.size(), 12u);
  const std::size_t copy = reads.size();  // same bases as read 2
  reads.push_back(reads[2]);
  const std::size_t empty = reads.size();
  reads.push_back(Read{});
  const std::vector<Cluster> clusters = {
      {{5}, {}},                      // a single member
      {{3, 3, 7, 3}, {}},             // a repeated read index
      {{2, copy, 9}, {}},             // two reads with identical bases
      {{empty, 1, 4}, {}},            // an empty strand among reads
      {{empty}, {}},                  // an empty strand alone
      {{empty, empty, 6}, {}},        // the empty medoid
      {{0, 1, 2, 8, 10, 11, 12}, {}}, // reads of different origins
  };
  const auto consensus = pooled_consensus(reads, clusters);
  ASSERT_EQ(consensus.size(), clusters.size());
  EXPECT_EQ(consensus[0], reads[5].bases);
  EXPECT_TRUE(consensus[4].empty());
  EXPECT_EQ(total_bases(consensus), 539u);
  EXPECT_EQ(strands_digest(consensus), 0xbc11d905b971541bull);
}

TEST(AcceleratorModel, PublishedKpis) {
  const EditAcceleratorModel model;  // paper configuration
  EXPECT_NEAR(model.cups() * 1e-12, 16.8, 0.2);  // 16.8 TCUPS
  const auto kpis = model.evaluate(1'000'000, 150, 150);
  EXPECT_NEAR(kpis.mpairs_per_joule, 46.0, 2.0);  // 46 Mpair/Joule
  EXPECT_GT(kpis.pairs_per_second, 7e8);
  EXPECT_GT(kpis.seconds_for_pairs, 0.0);
}

TEST(AcceleratorModel, ScalesWithPeCount) {
  EditAcceleratorConfig half;
  half.pe_count /= 2;
  const EditAcceleratorModel full_model;
  const EditAcceleratorModel half_model(half);
  EXPECT_NEAR(half_model.cups() / full_model.cups(), 0.5, 1e-9);
}

TEST(AcceleratorModel, SpeedupOverCpu) {
  const EditAcceleratorModel accel;
  const CpuEditProfile cpu;
  const auto cmp = compare_backends(accel, cpu, 1'000'000, 150, 150);
  // 16.8 TCUPS vs ~2.5 GCUPS single-core: several thousand x.
  EXPECT_GT(cmp.speedup, 1000.0);
  EXPECT_GT(cmp.energy_ratio, 100.0);
}

TEST(StorageSim, RecoversPayloadAtLowNoise) {
  StorageSimParams params;
  params.payload_bytes = 512;
  params.channel.substitution_rate = 0.005;
  params.channel.insertion_rate = 0.0025;
  params.channel.deletion_rate = 0.0025;
  params.channel.mean_coverage = 10.0;
  params.channel.seed = 31;
  const auto result = run_storage_sim(params);
  EXPECT_LT(result.byte_error_rate, 0.02);
  EXPECT_EQ(result.strands, 32u);
  EXPECT_GT(result.reads, 200u);
  EXPECT_GT(result.cluster_purity, 0.95);
  EXPECT_GT(result.cpu_decode_seconds, result.accel_decode_seconds);
}

TEST(StorageSim, WallClockStagesMeasured) {
  StorageSimParams params;
  params.payload_bytes = 512;
  params.channel.seed = 41;
  const auto r = run_storage_sim(params);
  // Stage timers actually fired, and clustering dominates (the DNAssim
  // observation motivating the FPGA integration [26]).
  EXPECT_GT(r.wall_cluster_s, 0.0);
  EXPECT_GT(r.wall_consensus_s, 0.0);
  EXPECT_GT(r.wall_cluster_s, r.wall_encode_s);
  EXPECT_GT(r.wall_cluster_s, r.wall_decode_s);
}

TEST(StorageSim, HighNoiseDegrades) {
  StorageSimParams clean;
  clean.payload_bytes = 512;
  clean.channel.seed = 37;
  StorageSimParams noisy = clean;
  noisy.channel.substitution_rate = 0.08;
  noisy.channel.insertion_rate = 0.04;
  noisy.channel.deletion_rate = 0.04;
  noisy.clustering.distance_threshold = 30;
  const auto r_clean = run_storage_sim(clean);
  const auto r_noisy = run_storage_sim(noisy);
  EXPECT_GE(r_noisy.byte_error_rate, r_clean.byte_error_rate);
}

}  // namespace
}  // namespace icsc::hetero::dna
