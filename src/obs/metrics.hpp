// Metrics registry: named counters, gauges, fixed-bucket histograms and
// time series, with a JSON exporter.
//
// This is the aggregate side of the observability layer (trace.hpp is the
// event side): the simulators register what they measure under stable dotted
// names ("packet_sim.link_util.max", "packet_sim.msg_latency_us", ...) and
// periodic sampling turns end-of-run scalars like RunResult::link_busy_ns into
// timelines. Instruments are owned by the registry and returned by reference;
// hot paths resolve an instrument once and touch a plain field afterwards.
//
// Naming convention: lowercase dotted paths, "<subsystem>.<measure>[.<agg>]".
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ftcf::obs {

/// Monotonically increasing integer.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins scalar.
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram over [lo, hi): `buckets` equal-width bins plus
/// explicit underflow/overflow counts; tracks count/sum/min/max exactly.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double v) noexcept;

  /// Fold another histogram of identical shape (lo / hi / bucket count)
  /// into this one: bucket counts, under/overflow, count and sum add;
  /// min/max widen. Used to merge per-partition histograms after a
  /// partitioned simulation; merging in a fixed partition order keeps the
  /// floating-point sum deterministic.
  void merge(const Histogram& other);

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// (sim-time, value) samples in recording order, bounded by a configurable
/// capacity with deterministic downsampling.
///
/// When the buffer is full, every second retained sample is discarded in
/// place and the acceptance stride doubles: from then on only every
/// `stride()`-th *offered* sample is recorded. The retained set is always
/// "offers at indices divisible by stride()" — a pure function of the offer
/// sequence, never of timing or thread count — so two identical runs keep
/// byte-identical series regardless of when decimation fires. Memory is
/// bounded by capacity() * 16 bytes per series (8 B time + 8 B value).
class TimeSeries {
 public:
  /// Default bound: 64 Ki samples = 1 MiB per series.
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  void sample(sim::SimTime at, double v) {
    const std::uint64_t index = offered_++;
    if (index % stride_ != 0) return;
    if (at_.size() >= capacity_) decimate();
    if (index % stride_ != 0) return;  // stride may have just doubled
    at_.push_back(at);
    values_.push_back(v);
  }

  /// Shrink (never grow) the memory bound; clamped to >= 2. Applies
  /// immediately: an over-full series decimates until it fits.
  void set_capacity(std::size_t cap);

  [[nodiscard]] std::size_t size() const noexcept { return at_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Samples offered via sample(), including ones decimated away.
  [[nodiscard]] std::uint64_t offered() const noexcept { return offered_; }
  /// Current acceptance stride (power of two; 1 until the first decimation).
  [[nodiscard]] std::uint64_t stride() const noexcept { return stride_; }
  [[nodiscard]] const std::vector<sim::SimTime>& times() const noexcept {
    return at_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  void decimate();

  std::size_t capacity_ = kDefaultCapacity;
  std::uint64_t stride_ = 1;
  std::uint64_t offered_ = 0;
  std::vector<sim::SimTime> at_;
  std::vector<double> values_;
};

/// Owner of named instruments. Lookup creates on first use; the reference
/// stays valid for the registry's lifetime (node-based map storage).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// lo/hi/buckets are fixed on first creation; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name, double lo,
                                     double hi, std::size_t buckets);
  [[nodiscard]] TimeSeries& series(const std::string& name);

  /// Capacity applied to series created *after* this call (existing series
  /// keep theirs). Clamped to >= 2.
  void set_series_capacity(std::size_t cap) noexcept {
    series_capacity_ = cap < 2 ? 2 : cap;
  }

  /// Free-form run metadata carried into the JSON export.
  void set_meta(const std::string& key, const std::string& value);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;
  [[nodiscard]] const TimeSeries* find_series(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }

  /// One JSON object: {"meta":{...},"counters":{...},"gauges":{...},
  /// "histograms":{...},"series":{...}} — keys sorted (map order), so two
  /// identical runs export byte-identical files.
  void write_json(std::ostream& os) const;

 private:
  std::size_t series_capacity_ = TimeSeries::kDefaultCapacity;
  std::map<std::string, std::string> meta_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace ftcf::obs
