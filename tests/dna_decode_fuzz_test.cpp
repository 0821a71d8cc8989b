// Seeded mutation fuzz of the two DNA payload decoders. Strand sets from
// encode_payload / encode_payload_ecc are mutated (fuzz::mutate over the
// base codes, mapped back to bases with & 3; strands dropped, duplicated
// and swapped) and decoded, sometimes with sizes that do not match the
// encoding. Every input must decode to exactly payload_bytes bytes, or
// throw core::Error when a size is zero -- never crash or read out of
// bounds (the CI runs this binary under ASan+UBSan).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "fuzz_mutate.hpp"
#include "hetero/dna/ecc.hpp"
#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {
namespace {

Strand mutate_strand(const Strand& strand, core::Rng& rng) {
  std::vector<std::uint8_t> codes(strand.size());
  for (std::size_t i = 0; i < strand.size(); ++i) {
    codes[i] = static_cast<std::uint8_t>(strand[i]);
  }
  codes = fuzz::mutate(std::move(codes), rng);
  Strand out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[i] = static_cast<Base>(codes[i] & 3);
  }
  return out;
}

/// Drops, duplicates or mutates strands, then swaps a few.
std::vector<Strand> mutate_set(const std::vector<Strand>& strands,
                               core::Rng& rng) {
  std::vector<Strand> out;
  for (const auto& strand : strands) {
    switch (rng.below(8)) {
      case 0:
        break;
      case 1:
        out.push_back(strand);
        out.push_back(mutate_strand(strand, rng));
        break;
      case 2:
      case 3:
        out.push_back(mutate_strand(strand, rng));
        break;
      default:
        out.push_back(strand);
    }
  }
  for (std::uint64_t swaps = rng.below(4); swaps > 0 && !out.empty();
       --swaps) {
    std::swap(out[rng.below(out.size())], out[rng.below(out.size())]);
  }
  return out;
}

std::vector<std::uint8_t> random_payload(std::size_t bytes, core::Rng& rng) {
  std::vector<std::uint8_t> payload(bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  return payload;
}

/// The encoded size most of the time; otherwise a small one, zero included.
std::size_t decode_size(std::size_t encoded, std::uint64_t small,
                        core::Rng& rng) {
  return rng.below(4) == 0 ? rng.below(small) : encoded;
}

TEST(DnaDecodeFuzz, PlainDecoderReturnsPayloadBytesOrThrows) {
  core::Rng rng(17);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t payload_bytes = 1 + rng.below(160);
    const std::size_t chunk_bytes = 1 + rng.below(24);
    const auto set =
        encode_payload(random_payload(payload_bytes, rng), chunk_bytes);
    const auto strands = mutate_set(set.strands, rng);
    const std::size_t want_bytes = decode_size(payload_bytes, 200, rng);
    const std::size_t want_chunk = decode_size(chunk_bytes, 4, rng);
    if (want_chunk == 0) {
      EXPECT_THROW(decode_payload(strands, want_bytes, want_chunk),
                   core::Error);
      continue;
    }
    const auto result = decode_payload(strands, want_bytes, want_chunk);
    EXPECT_EQ(result.payload.size(), want_bytes) << "trial " << trial;
  }
}

TEST(DnaDecodeFuzz, EccDecoderReturnsPayloadBytesOrThrows) {
  core::Rng rng(19);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t payload_bytes = 1 + rng.below(160);
    const std::size_t chunk_bytes = 1 + rng.below(24);
    EccParams params;
    params.group_size = 1 + rng.below(9);
    const auto set = encode_payload_ecc(random_payload(payload_bytes, rng),
                                        chunk_bytes, params);
    const auto strands = mutate_set(set.strands, rng);
    const std::size_t want_bytes = decode_size(payload_bytes, 200, rng);
    const std::size_t want_chunk = decode_size(chunk_bytes, 4, rng);
    EccParams want_params;
    want_params.group_size = decode_size(params.group_size, 4, rng);
    if (want_chunk == 0 || want_params.group_size == 0) {
      EXPECT_THROW(
          decode_payload_ecc(strands, want_bytes, want_chunk, want_params),
          core::Error);
      continue;
    }
    const auto result =
        decode_payload_ecc(strands, want_bytes, want_chunk, want_params);
    EXPECT_EQ(result.payload.size(), want_bytes) << "trial " << trial;
    EXPECT_EQ(result.missing_after_repair + result.repaired_chunks,
              result.missing_before_repair)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace icsc::hetero::dna
