// Deterministic random number generation.
//
// All randomness in ftcf flows through explicitly-seeded generators so every
// experiment is reproducible from its printed seed. We implement
// splitmix64 (seeding) and xoshiro256** (bulk generation) rather than rely on
// std::mt19937 so that sequences are identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/expects.hpp"

namespace ftcf::util {

/// splitmix64: tiny, high-quality 64-bit mixer; used to expand seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Random-access seed derivation: the (index+1)-th output of
/// SplitMix64(base), computed directly. Use this — never `base + index` —
/// to give trial t of an ensemble its own seed: with plain addition the
/// ensembles for adjacent bases (seed, seed + 1) share all but one trial,
/// silently correlating runs that should be independent.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base,
                                                  std::uint64_t index) noexcept {
  // SplitMix64 state after k steps is base + k * gamma; mixing it yields
  // the k-th output, so this is equivalent to (but O(1) instead of O(k))
  // stepping a SplitMix64 forward index+1 times.
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256**: fast all-purpose 64-bit PRNG (Blackman & Vigna).
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x5eed'f7cf'2011ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's nearly-divisionless rejection method.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Derive an independent child generator (for per-trial streams).
  Xoshiro256 split() noexcept { return Xoshiro256((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher-Yates shuffle of a vector-like container.
template <typename Container>
void shuffle(Container& c, Xoshiro256& rng) {
  using std::swap;
  const std::size_t n = c.size();
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    swap(c[i - 1], c[j]);
  }
}

/// A uniformly random permutation of {0, 1, ..., n-1}.
std::vector<std::size_t> random_permutation(std::size_t n, Xoshiro256& rng);

/// A uniformly random k-subset of {0, 1, ..., n-1}, returned sorted.
std::vector<std::size_t> random_subset(std::size_t n, std::size_t k,
                                       Xoshiro256& rng);

}  // namespace ftcf::util
