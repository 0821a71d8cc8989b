// Digital-data <-> DNA base encoding (Sec. VI, Fig. 6a).
//
// "This method allows encoding the digital information -- composed of '1's
// and '0's -- in a synthetic molecule" with two bits per nucleotide
// (A/C/G/T). Synthesis chemistry constrains the strands: long homopolymer
// runs (>3 identical bases) and extreme GC content raise error rates, so
// practical codecs use a rotation code that guarantees run-length limits.
// We implement both the direct 2-bit map and the rotation code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace icsc::hetero::dna {

/// Nucleotides, encoded 0..3.
enum class Base : std::uint8_t { A = 0, C = 1, G = 2, T = 3 };

char base_to_char(Base b);
Base char_to_base(char c);

/// A strand is a sequence of bases.
using Strand = std::vector<Base>;

std::string strand_to_string(const Strand& strand);
Strand strand_from_string(const std::string& text);

/// Direct mapping: every byte becomes 4 bases (2 bits/base, MSB first).
Strand encode_direct(const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> decode_direct(const Strand& strand);

/// Rotation code: each 2-bit symbol selects one of the three bases
/// *different from the previous base*, guaranteeing no homopolymer run of
/// length 2 or more at 1.585 bits/base... we instead use the standard
/// run-length-limited variant: symbol values 0..2 rotate among the three
/// non-previous bases, and the fourth value is escaped. Here we implement
/// the simpler and widely used Goldman-style ternary rotation: the payload
/// is first expanded to base-3 digits, then each digit picks among the
/// three bases distinct from the previous one.
Strand encode_rotation(const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> decode_rotation(const Strand& strand,
                                          std::size_t payload_bytes);

/// Longest homopolymer run in a strand (1 for alternating content).
std::size_t max_homopolymer_run(const Strand& strand);

/// Fraction of G/C bases.
double gc_content(const Strand& strand);

/// Splits a payload into fixed-size addressed chunks: each strand carries
/// a 16-bit index (rotation-coded with the data) so decoding can reorder.
struct OligoSet {
  std::vector<Strand> strands;
  std::size_t payload_bytes = 0;
  std::size_t chunk_bytes = 0;
};

OligoSet encode_payload(const std::vector<std::uint8_t>& payload,
                        std::size_t chunk_bytes);

/// Inverse of encode_payload given perfectly recovered strands (consensus
/// output). Missing/failed strands are zero-filled and reported. Any strand
/// set decodes to payload_bytes bytes; throws core::Error if chunk_bytes
/// is 0.
struct DecodeResult {
  std::vector<std::uint8_t> payload;
  std::size_t missing_chunks = 0;
  std::size_t corrupted_chunks = 0;  // index out of range after decode
};

DecodeResult decode_payload(const std::vector<Strand>& strands,
                            std::size_t payload_bytes,
                            std::size_t chunk_bytes);

}  // namespace icsc::hetero::dna
