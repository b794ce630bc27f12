#include "util/rng.hpp"

#include <algorithm>

namespace ftcf::util {

std::uint64_t Xoshiro256::below(std::uint64_t bound) noexcept {
  // Lemire 2019: multiply-shift with rejection to remove modulo bias.
  if (bound == 0) return 0;  // degenerate; callers validate separately
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::vector<std::size_t> random_permutation(std::size_t n, Xoshiro256& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  shuffle(perm, rng);
  return perm;
}

std::vector<std::size_t> random_subset(std::size_t n, std::size_t k,
                                       Xoshiro256& rng) {
  expects(k <= n, "random_subset: k must not exceed n");
  // Floyd's algorithm would avoid the O(n) permutation, but n is small in all
  // our uses (<= tens of thousands) and this keeps the distribution obvious.
  auto perm = random_permutation(n, rng);
  perm.resize(k);
  std::sort(perm.begin(), perm.end());
  return perm;
}

}  // namespace ftcf::util
