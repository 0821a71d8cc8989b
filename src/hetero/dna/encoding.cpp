#include "hetero/dna/encoding.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/error.hpp"

namespace icsc::hetero::dna {

char base_to_char(Base b) {
  static constexpr char kChars[4] = {'A', 'C', 'G', 'T'};
  return kChars[static_cast<std::uint8_t>(b)];
}

Base char_to_base(char c) {
  switch (c) {
    case 'A': return Base::A;
    case 'C': return Base::C;
    case 'G': return Base::G;
    case 'T': return Base::T;
    default: throw std::invalid_argument("char_to_base: invalid base");
  }
}

std::string strand_to_string(const Strand& strand) {
  std::string out;
  out.reserve(strand.size());
  for (const Base b : strand) out.push_back(base_to_char(b));
  return out;
}

Strand strand_from_string(const std::string& text) {
  Strand out;
  out.reserve(text.size());
  for (const char c : text) out.push_back(char_to_base(c));
  return out;
}

Strand encode_direct(const std::vector<std::uint8_t>& payload) {
  Strand out;
  out.reserve(payload.size() * 4);
  for (const std::uint8_t byte : payload) {
    for (int shift = 6; shift >= 0; shift -= 2) {
      out.push_back(static_cast<Base>((byte >> shift) & 0x3));
    }
  }
  return out;
}

std::vector<std::uint8_t> decode_direct(const Strand& strand) {
  std::vector<std::uint8_t> out(strand.size() / 4, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint8_t byte = 0;
    for (int k = 0; k < 4; ++k) {
      byte = static_cast<std::uint8_t>(
          (byte << 2) | static_cast<std::uint8_t>(strand[4 * i + k]));
    }
    out[i] = byte;
  }
  return out;
}

namespace {

constexpr int kTritsPerByte = 6;  // 3^6 = 729 >= 256

/// The three bases different from `prev`, in increasing numeric order.
std::array<Base, 3> rotation_candidates(Base prev) {
  std::array<Base, 3> out{};
  int k = 0;
  for (std::uint8_t b = 0; b < 4; ++b) {
    if (static_cast<Base>(b) != prev) out[k++] = static_cast<Base>(b);
  }
  return out;
}

}  // namespace

Strand encode_rotation(const std::vector<std::uint8_t>& payload) {
  Strand out;
  out.reserve(payload.size() * kTritsPerByte);
  Base prev = Base::A;  // virtual predecessor; first base is never 'A'
  for (const std::uint8_t byte : payload) {
    int value = byte;
    std::array<int, kTritsPerByte> trits{};
    for (int k = kTritsPerByte - 1; k >= 0; --k) {
      trits[k] = value % 3;
      value /= 3;
    }
    for (const int trit : trits) {
      const Base next = rotation_candidates(prev)[trit];
      out.push_back(next);
      prev = next;
    }
  }
  return out;
}

std::vector<std::uint8_t> decode_rotation(const Strand& strand,
                                          std::size_t payload_bytes) {
  std::vector<std::uint8_t> out(payload_bytes, 0);
  Base prev = Base::A;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    int value = 0;
    for (int k = 0; k < kTritsPerByte; ++k) {
      if (pos >= strand.size()) return out;  // truncated strand
      const Base b = strand[pos++];
      const auto candidates = rotation_candidates(prev);
      int trit = 0;  // unknown bases (b == prev cannot happen) decode as 0
      for (int c = 0; c < 3; ++c) {
        if (candidates[c] == b) trit = c;
      }
      value = value * 3 + trit;
      prev = b;
    }
    out[i] = static_cast<std::uint8_t>(std::min(value, 255));
  }
  return out;
}

std::size_t max_homopolymer_run(const Strand& strand) {
  std::size_t best = strand.empty() ? 0 : 1;
  std::size_t run = 1;
  for (std::size_t i = 1; i < strand.size(); ++i) {
    run = strand[i] == strand[i - 1] ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

double gc_content(const Strand& strand) {
  if (strand.empty()) return 0.0;
  std::size_t gc = 0;
  for (const Base b : strand) {
    if (b == Base::C || b == Base::G) ++gc;
  }
  return static_cast<double>(gc) / static_cast<double>(strand.size());
}

OligoSet encode_payload(const std::vector<std::uint8_t>& payload,
                        std::size_t chunk_bytes) {
  if (chunk_bytes == 0) throw std::invalid_argument("chunk_bytes must be > 0");
  OligoSet set;
  set.payload_bytes = payload.size();
  set.chunk_bytes = chunk_bytes;
  const std::size_t chunks = (payload.size() + chunk_bytes - 1) / chunk_bytes;
  if (chunks > 0xFFFF) {
    throw std::invalid_argument("payload needs more than 65535 chunks");
  }
  for (std::size_t idx = 0; idx < chunks; ++idx) {
    std::vector<std::uint8_t> record;
    record.reserve(2 + chunk_bytes);
    record.push_back(static_cast<std::uint8_t>(idx >> 8));
    record.push_back(static_cast<std::uint8_t>(idx & 0xFF));
    for (std::size_t k = 0; k < chunk_bytes; ++k) {
      const std::size_t byte_index = idx * chunk_bytes + k;
      record.push_back(byte_index < payload.size() ? payload[byte_index] : 0);
    }
    set.strands.push_back(encode_rotation(record));
  }
  return set;
}

DecodeResult decode_payload(const std::vector<Strand>& strands,
                            std::size_t payload_bytes,
                            std::size_t chunk_bytes) {
  if (chunk_bytes == 0) {
    throw core::Error("dna::decode_payload", "chunk_bytes must be > 0");
  }
  DecodeResult result;
  result.payload.assign(payload_bytes, 0);
  const std::size_t chunks = (payload_bytes + chunk_bytes - 1) / chunk_bytes;
  std::vector<bool> seen(chunks, false);
  for (const Strand& strand : strands) {
    const auto record = decode_rotation(strand, 2 + chunk_bytes);
    const std::size_t idx =
        (static_cast<std::size_t>(record[0]) << 8) | record[1];
    if (idx >= chunks) {
      ++result.corrupted_chunks;
      continue;
    }
    // First writer wins: callers order strands by reliability (cluster
    // size), so a later noisy duplicate must not overwrite a good chunk.
    if (seen[idx]) continue;
    seen[idx] = true;
    for (std::size_t k = 0; k < chunk_bytes; ++k) {
      const std::size_t byte_index = idx * chunk_bytes + k;
      if (byte_index < payload_bytes) {
        result.payload[byte_index] = record[2 + k];
      }
    }
  }
  for (const bool s : seen) {
    if (!s) ++result.missing_chunks;
  }
  return result;
}

}  // namespace icsc::hetero::dna
