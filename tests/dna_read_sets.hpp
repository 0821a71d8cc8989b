// Seeded read sets shared by the DNA clustering suites, sized like one
// e2ebench dna_archival job: a random payload in 16-byte chunks through the
// default channel. They hold many batches of cluster_reads' scan, so they
// cross batch boundaries both in channel order (a strand's reads arrive
// together, so their cluster is mostly founded inside the batch) and
// shuffled (most reads join a cluster founded in an earlier batch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna::test {

/// Reads of a `payload_bytes` random payload, encoded in 16-byte chunks,
/// through the default channel at `coverage`, in channel order.
inline std::vector<Read> archival_reads(std::uint64_t seed,
                                        std::size_t payload_bytes,
                                        double coverage) {
  core::Rng rng(seed);
  std::vector<std::uint8_t> payload(payload_bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  ChannelParams channel;
  channel.mean_coverage = coverage;
  channel.seed = seed ^ 0xC4A7ULL;
  return simulate_channel(encode_payload(payload, 16).strands, channel).reads;
}

/// `reads` in a fixed-seed random order.
inline std::vector<Read> shuffled(const std::vector<Read>& reads,
                                  std::uint64_t seed) {
  std::vector<Read> out;
  out.reserve(reads.size());
  for (const std::size_t i : core::Rng(seed).permutation(reads.size())) {
    out.push_back(reads[i]);
  }
  return out;
}

/// FNV-1a over the cluster label of every read (the index of the cluster
/// that holds it, clusters numbered in founding order); reads no cluster
/// holds hash as ~0.
inline std::uint64_t label_hash(const ClusterResult& result,
                                std::size_t reads) {
  std::vector<std::uint64_t> label(reads, ~std::uint64_t{0});
  for (std::size_t c = 0; c < result.clusters.size(); ++c) {
    for (const std::size_t r : result.clusters[c].read_indices) label[r] = c;
  }
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint64_t l : label) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (l >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

}  // namespace icsc::hetero::dna::test
