// Seeded mutator shared by the parser fuzz tests. Each call applies one to
// three mutations: flip 1-4 bits, truncate, or splice a copy of a span of
// up to 96 bytes (longer than a small CRC frame) into, or over, another
// position.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/rng.hpp"

namespace icsc::fuzz {

/// `Bytes` is a byte container: std::vector<std::uint8_t> or std::string.
template <class Bytes>
Bytes mutate(Bytes bytes, core::Rng& rng) {
  using Byte = typename Bytes::value_type;
  for (std::uint64_t round = 1 + rng.below(3); round > 0 && !bytes.empty();
       --round) {
    switch (rng.below(3)) {
      case 0:
        for (std::uint64_t flips = 1 + rng.below(4); flips > 0; --flips) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<Byte>(1u << rng.below(8));
        }
        break;
      case 1:
        bytes.resize(rng.below(bytes.size()));
        break;
      default: {
        const std::size_t from = rng.below(bytes.size());
        const std::size_t len =
            1 + rng.below(std::min<std::size_t>(96, bytes.size() - from));
        const Bytes span(bytes.begin() + from, bytes.begin() + from + len);
        const std::size_t to = rng.below(bytes.size() + 1);
        if (rng.below(2) == 0) {
          bytes.insert(bytes.begin() + to, span.begin(), span.end());
        } else {
          bytes.resize(std::max(bytes.size(), to + len));
          std::copy(span.begin(), span.end(), bytes.begin() + to);
        }
      }
    }
  }
  return bytes;
}

}  // namespace icsc::fuzz
