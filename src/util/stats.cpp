#include "util/stats.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace ftcf::util {

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::vector<double> percentiles(std::vector<double> sample,
                                std::span<const double> qs) {
  expects(!sample.empty(), "percentile of empty sample");
  std::sort(sample.begin(), sample.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) {
    expects(q >= 0.0 && q <= 1.0, "percentile rank must be in [0,1]");
    // Closest-ranks interpolation.
    const double pos = q * static_cast<double>(sample.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(lo + 1 >= sample.size()
                      ? sample.back()
                      : sample[lo] * (1.0 - frac) + sample[lo + 1] * frac);
  }
  return out;
}

}  // namespace ftcf::util
