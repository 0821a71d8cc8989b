#include "hetero/dna/prefilter.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/simd.hpp"

namespace icsc::hetero::dna {

namespace {

void check_q(const char* where, int q) {
  if (q < 1 || q > 8) {
    throw core::Error(where, "q-gram order must be in [1, 8]",
                      "got " + std::to_string(q));
  }
}

}  // namespace

int length_lower_bound(const Strand& a, const Strand& b) {
  return static_cast<int>(
      std::llabs(static_cast<long long>(a.size()) -
                 static_cast<long long>(b.size())));
}

std::vector<std::uint16_t> qgram_histogram(const Strand& s, int q) {
  check_q("dna::qgram_histogram", q);
  std::vector<std::uint16_t> hist(std::size_t{1} << (2 * q), 0);
  if (s.size() < static_cast<std::size_t>(q)) return hist;
  const std::uint32_t mask = (1u << (2 * q)) - 1;
  std::uint32_t code = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    code = ((code << 2) | static_cast<std::uint8_t>(s[i])) & mask;
    if (i + 1 >= static_cast<std::size_t>(q)) ++hist[code];
  }
  return hist;
}

int qgram_histogram_lower_bound(const std::vector<std::uint16_t>& ha,
                                const std::vector<std::uint16_t>& hb, int q) {
  check_q("dna::qgram_histogram_lower_bound", q);
  const std::size_t buckets = std::size_t{1} << (2 * q);
  if (ha.size() != buckets || hb.size() != buckets) {
    throw core::Error("dna::qgram_histogram_lower_bound",
                      "histograms must have 4^q buckets",
                      "got " + std::to_string(ha.size()) + " and " +
                          std::to_string(hb.size()) + ", expected " +
                          std::to_string(buckets));
  }
  // L1 distance between histograms; each edit changes at most q q-grams in
  // each string, so |hist_a - hist_b|_1 <= 2 q d  =>  d >= L1 / (2q). The
  // clustering screens spend most of their time in this pass, so it runs
  // on the SIMD lanes (u16 absolute differences, identical mod-2^32 sum).
  const std::uint32_t l1 =
      core::simd::l1_distance_u16(ha.data(), hb.data(), ha.size());
  return static_cast<int>(l1) / (2 * q);
}

int qgram_lower_bound(const Strand& a, const Strand& b, int q) {
  return qgram_histogram_lower_bound(qgram_histogram(a, q),
                                     qgram_histogram(b, q), q);
}

}  // namespace icsc::hetero::dna
