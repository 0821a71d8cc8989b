// Erasure coding across strands (Sec. VI; [25] "Robust Chemical
// Preservation of Digital Information on DNA in Silica with
// Error-Correcting Codes").
//
// Whole-strand loss (synthesis dropout, low sequencing coverage) is the
// dominant failure mode the end-to-end pipeline exhibits; substitutions
// inside recovered strands are mostly repaired by consensus. The standard
// remedy is an outer erasure code across strands. We implement striped XOR
// parity (RAID-style): every group of `k` data chunks gets one parity
// chunk, so one missing chunk per group is recoverable. The group id and
// role travel in the existing 16-bit chunk index.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hetero/dna/encoding.hpp"

namespace icsc::hetero::dna {

struct EccParams {
  /// Data chunks per parity group; a parity strand is added per group.
  std::size_t group_size = 7;
};

/// Encodes payload into data strands plus parity strands. Chunk indices:
/// data chunks keep their linear index; parity chunk of group g gets index
/// 0x8000 | g (top bit marks parity). Every record additionally carries a
/// CRC-8 (inner code): consensus strands whose CRC fails are treated as
/// erasures, which the outer parity can then repair -- the classic
/// inner-detection / outer-correction layering of DNA codecs [25].
OligoSet encode_payload_ecc(const std::vector<std::uint8_t>& payload,
                            std::size_t chunk_bytes, const EccParams& params);

/// CRC-8 (poly 0x07, init 0) over a byte span; exposed for tests.
std::uint8_t crc8(const std::vector<std::uint8_t>& bytes);

/// Decodes strands produced by encode_payload_ecc: reassembles data
/// chunks, then repairs at most one missing chunk per parity group by
/// XORing the group's surviving members with its parity. Any strand set
/// decodes to payload_bytes bytes; throws core::Error if chunk_bytes or
/// params.group_size is 0.
struct EccDecodeResult {
  std::vector<std::uint8_t> payload;
  std::size_t missing_before_repair = 0;
  std::size_t repaired_chunks = 0;
  std::size_t missing_after_repair = 0;
};

EccDecodeResult decode_payload_ecc(const std::vector<Strand>& strands,
                                   std::size_t payload_bytes,
                                   std::size_t chunk_bytes,
                                   const EccParams& params);

/// Storage overhead of the code: total strands / data strands.
double ecc_overhead(std::size_t data_chunks, const EccParams& params);

}  // namespace icsc::hetero::dna
