// Streaming statistics and percentiles for experiment reporting.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace ftcf::util {

/// Streaming accumulator: count / min / max / mean / variance (Welford).
class Accumulator {
 public:
  void add(double x) noexcept {
    ++count_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept {
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const noexcept {
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const Accumulator& other) noexcept;

  /// Rebuild an accumulator from externally computed moments. Used by code
  /// that accumulates exact integer moments (count / sum / sum-of-squares)
  /// and derives mean and m2 once at the end — unlike streaming Welford
  /// updates, such moments are independent of accumulation order, which is
  /// what the partitioned simulator needs for partition-count-invariant
  /// latency statistics. `m2` is the sum of squared deviations from the
  /// mean (so variance() = m2 / (count - 1)).
  [[nodiscard]] static Accumulator from_moments(std::uint64_t count,
                                                double sum, double mean,
                                                double m2, double min,
                                                double max) noexcept {
    Accumulator acc;
    if (count == 0) return acc;
    acc.count_ = count;
    acc.sum_ = sum;
    acc.mean_ = mean;
    acc.m2_ = m2;
    acc.min_ = min;
    acc.max_ = max;
    return acc;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ftcf::util
