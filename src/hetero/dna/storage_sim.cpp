#include "hetero/dna/storage_sim.hpp"

#include <algorithm>
#include <chrono>

#include "core/rng.hpp"

namespace icsc::hetero::dna {

StorageSimResult run_storage_sim(const StorageSimParams& params,
                                 const CpuEditProfile& cpu,
                                 const EditAcceleratorModel& accel) {
  // Deterministic payload derived from the channel seed.
  core::Rng rng(params.channel.seed ^ 0xDA7A'57A7ULL);
  std::vector<std::uint8_t> payload(params.payload_bytes);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));

  const auto stamp = [] { return std::chrono::steady_clock::now(); };
  const auto since = [](auto t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  auto t0 = stamp();
  const OligoSet oligos = encode_payload(payload, params.chunk_bytes);
  const double wall_encode = since(t0);

  t0 = stamp();
  const ReadSet read_set = simulate_channel(oligos.strands, params.channel);
  const double wall_channel = since(t0);

  t0 = stamp();
  ClusterResult clusters = cluster_reads(read_set.reads, params.clustering);
  const double wall_cluster = since(t0);
  // Large clusters carry the most reliable consensus; decode them first so
  // fragment clusters cannot claim a chunk index ahead of them.
  std::stable_sort(clusters.clusters.begin(), clusters.clusters.end(),
                   [](const Cluster& a, const Cluster& b) {
                     return a.read_indices.size() > b.read_indices.size();
                   });
  t0 = stamp();
  const auto consensus = call_all_consensus(read_set.reads, clusters.clusters);
  const double wall_consensus = since(t0);

  t0 = stamp();
  const DecodeResult decoded =
      decode_payload(consensus, params.payload_bytes, params.chunk_bytes);
  const double wall_decode = since(t0);

  StorageSimResult result;
  result.strands = oligos.strands.size();
  result.reads = read_set.reads.size();
  result.clusters = clusters.clusters.size();
  result.cluster_purity =
      evaluate_clusters(clusters, read_set.reads, oligos.strands.size()).purity;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (decoded.payload[i] != payload[i]) ++wrong;
  }
  result.byte_error_rate =
      payload.empty() ? 0.0
                      : static_cast<double>(wrong) /
                            static_cast<double>(payload.size());
  result.missing_chunks = decoded.missing_chunks;
  result.pair_comparisons = clusters.pair_comparisons;
  result.dp_cells = clusters.dp_cells_updated;

  result.cpu_decode_seconds =
      cpu.cups > 0 ? static_cast<double>(result.dp_cells) / cpu.cups : 0.0;
  result.accel_decode_seconds =
      accel.cups() > 0 ? static_cast<double>(result.dp_cells) / accel.cups()
                       : 0.0;
  result.wall_encode_s = wall_encode;
  result.wall_channel_s = wall_channel;
  result.wall_cluster_s = wall_cluster;
  result.wall_consensus_s = wall_consensus;
  result.wall_decode_s = wall_decode;
  return result;
}

ArchivalSimResult run_archival_sim(const ArchivalSimParams& params) {
  // Same payload derivation as run_storage_sim for a given channel seed.
  core::Rng rng(params.channel.seed ^ 0xDA7A'57A7ULL);
  std::vector<std::uint8_t> payload(params.payload_bytes);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));

  const OligoSet oligos =
      encode_payload_ecc(payload, params.chunk_bytes, params.ecc);
  const RereadResult channel =
      simulate_channel_reread(oligos.strands, params.channel, params.reread);

  ClusterResult clusters =
      cluster_reads(channel.set.reads, params.clustering);
  std::stable_sort(clusters.clusters.begin(), clusters.clusters.end(),
                   [](const Cluster& a, const Cluster& b) {
                     return a.read_indices.size() > b.read_indices.size();
                   });
  const auto consensus =
      call_all_consensus(channel.set.reads, clusters.clusters);
  const EccDecodeResult decoded = decode_payload_ecc(
      consensus, params.payload_bytes, params.chunk_bytes, params.ecc);

  ArchivalSimResult result;
  result.strands = oligos.strands.size();
  result.reads = channel.set.reads.size();
  result.clusters = clusters.clusters.size();
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (decoded.payload[i] != payload[i]) ++wrong;
  }
  result.byte_error_rate =
      payload.empty() ? 0.0
                      : static_cast<double>(wrong) /
                            static_cast<double>(payload.size());
  result.missing_before_repair = decoded.missing_before_repair;
  result.repaired_chunks = decoded.repaired_chunks;
  result.missing_after_repair = decoded.missing_after_repair;
  result.passes_used = channel.passes_used;
  result.rescued_strands = channel.rescued_strands;
  result.unrecovered_strands = channel.unrecovered_strands;
  return result;
}

}  // namespace icsc::hetero::dna
