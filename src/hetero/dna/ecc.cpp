#include "hetero/dna/ecc.hpp"

#include <stdexcept>

#include "core/error.hpp"

namespace icsc::hetero::dna {

std::uint8_t crc8(const std::vector<std::uint8_t>& bytes) {
  std::uint8_t crc = 0;
  for (const std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
    }
  }
  return crc;
}

namespace {

constexpr std::size_t kParityFlag = 0x8000;

std::vector<std::uint8_t> make_record(std::size_t index,
                                      const std::vector<std::uint8_t>& chunk) {
  std::vector<std::uint8_t> record;
  record.reserve(3 + chunk.size());
  record.push_back(static_cast<std::uint8_t>(index >> 8));
  record.push_back(static_cast<std::uint8_t>(index & 0xFF));
  record.insert(record.end(), chunk.begin(), chunk.end());
  record.push_back(crc8(record));  // inner code over index + data
  return record;
}

}  // namespace

OligoSet encode_payload_ecc(const std::vector<std::uint8_t>& payload,
                            std::size_t chunk_bytes, const EccParams& params) {
  if (chunk_bytes == 0) throw std::invalid_argument("chunk_bytes must be > 0");
  if (params.group_size == 0) {
    throw std::invalid_argument("group_size must be > 0");
  }
  const std::size_t chunks = (payload.size() + chunk_bytes - 1) / chunk_bytes;
  if (chunks >= kParityFlag) {
    throw std::invalid_argument("payload too large for 15-bit chunk indices");
  }
  const std::size_t groups =
      (chunks + params.group_size - 1) / params.group_size;
  if (groups >= kParityFlag) {
    throw std::invalid_argument("too many parity groups");
  }

  OligoSet set;
  set.payload_bytes = payload.size();
  set.chunk_bytes = chunk_bytes;

  std::vector<std::uint8_t> parity(chunk_bytes, 0);
  std::size_t group = 0;
  std::size_t in_group = 0;
  auto flush_parity = [&]() {
    set.strands.push_back(
        encode_rotation(make_record(kParityFlag | group, parity)));
    parity.assign(chunk_bytes, 0);
    in_group = 0;
    ++group;
  };

  for (std::size_t idx = 0; idx < chunks; ++idx) {
    std::vector<std::uint8_t> chunk(chunk_bytes, 0);
    for (std::size_t k = 0; k < chunk_bytes; ++k) {
      const std::size_t byte_index = idx * chunk_bytes + k;
      if (byte_index < payload.size()) chunk[k] = payload[byte_index];
    }
    set.strands.push_back(encode_rotation(make_record(idx, chunk)));
    for (std::size_t k = 0; k < chunk_bytes; ++k) parity[k] ^= chunk[k];
    if (++in_group == params.group_size) flush_parity();
  }
  if (in_group > 0) flush_parity();
  return set;
}

EccDecodeResult decode_payload_ecc(const std::vector<Strand>& strands,
                                   std::size_t payload_bytes,
                                   std::size_t chunk_bytes,
                                   const EccParams& params) {
  if (chunk_bytes == 0) {
    throw core::Error("dna::decode_payload_ecc", "chunk_bytes must be > 0");
  }
  if (params.group_size == 0) {
    throw core::Error("dna::decode_payload_ecc", "group_size must be > 0");
  }
  const std::size_t chunks = (payload_bytes + chunk_bytes - 1) / chunk_bytes;
  const std::size_t groups =
      (chunks + params.group_size - 1) / params.group_size;

  std::vector<std::optional<std::vector<std::uint8_t>>> data(chunks);
  std::vector<std::optional<std::vector<std::uint8_t>>> parity(groups);

  for (const Strand& strand : strands) {
    const auto record = decode_rotation(strand, 3 + chunk_bytes);
    // Inner code: reject records whose CRC does not verify -- a corrupted
    // consensus becomes an erasure the outer parity can repair.
    const std::vector<std::uint8_t> covered(record.begin(), record.end() - 1);
    if (crc8(covered) != record.back()) continue;
    const std::size_t index =
        (static_cast<std::size_t>(record[0]) << 8) | record[1];
    std::vector<std::uint8_t> chunk(record.begin() + 2, record.end() - 1);
    if (index & kParityFlag) {
      const std::size_t group = index & ~kParityFlag;
      if (group < groups && !parity[group]) parity[group] = std::move(chunk);
    } else if (index < chunks && !data[index]) {
      data[index] = std::move(chunk);
    }
  }

  EccDecodeResult result;
  for (const auto& chunk : data) {
    if (!chunk) ++result.missing_before_repair;
  }

  // Repair: one missing data chunk per group is the XOR of the parity and
  // the surviving members.
  for (std::size_t group = 0; group < groups; ++group) {
    if (!parity[group]) continue;
    const std::size_t begin = group * params.group_size;
    const std::size_t end = std::min(chunks, begin + params.group_size);
    std::size_t missing_index = chunks;
    std::size_t missing_count = 0;
    for (std::size_t idx = begin; idx < end; ++idx) {
      if (!data[idx]) {
        missing_index = idx;
        ++missing_count;
      }
    }
    if (missing_count != 1) continue;
    std::vector<std::uint8_t> repaired = *parity[group];
    for (std::size_t idx = begin; idx < end; ++idx) {
      if (idx == missing_index) continue;
      for (std::size_t k = 0; k < chunk_bytes; ++k) {
        repaired[k] ^= (*data[idx])[k];
      }
    }
    data[missing_index] = std::move(repaired);
    ++result.repaired_chunks;
  }

  result.payload.assign(payload_bytes, 0);
  for (std::size_t idx = 0; idx < chunks; ++idx) {
    if (!data[idx]) {
      ++result.missing_after_repair;
      continue;
    }
    for (std::size_t k = 0; k < chunk_bytes; ++k) {
      const std::size_t byte_index = idx * chunk_bytes + k;
      if (byte_index < payload_bytes) {
        result.payload[byte_index] = (*data[idx])[k];
      }
    }
  }
  return result;
}

double ecc_overhead(std::size_t data_chunks, const EccParams& params) {
  if (data_chunks == 0) return 1.0;
  const std::size_t groups =
      (data_chunks + params.group_size - 1) / params.group_size;
  return static_cast<double>(data_chunks + groups) /
         static_cast<double>(data_chunks);
}

}  // namespace icsc::hetero::dna
