#include "core/rng.hpp"

#include <cmath>
#include <numbers>

namespace icsc::core {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits give a uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  // Lemire's multiply-shift with rejection for unbiased bounded integers.
  if (n == 0) return 0;
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  double sin_theta = 0.0;
  double cos_theta = 0.0;
#if defined(__GLIBC__)
  // One fused argument reduction for the Box-Muller pair: device
  // programming and MemoryCell reads draw their noise here (crossbar
  // reads use the counter-based core::simd::normal_pairs).
  ::sincos(theta, &sin_theta, &cos_theta);
#else
  sin_theta = std::sin(theta);
  cos_theta = std::cos(theta);
#endif
  cached_normal_ = r * sin_theta;
  has_cached_normal_ = true;
  return r * cos_theta;
}

double Rng::normal(double mu, double sigma) { return mu + sigma * normal(); }

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

int Rng::poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    double product = uniform();
    int count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large lambda.
  const double value = normal(lambda, std::sqrt(lambda));
  return value < 0.0 ? 0 : static_cast<int>(value + 0.5);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = below(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

Rng Rng::split() { return Rng((*this)() ^ 0xA5A5'5A5A'DEAD'BEEFULL); }

}  // namespace icsc::core
