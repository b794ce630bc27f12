// Closed-loop request harness: span tracing around layer calls, counters,
// the output digest and the latency statistics the runner reports.
//
// Spans are recorded only from the benchmark's own files, around each call
// into a library layer's public function; nothing inside the library is
// instrumented. A disabled Tracer costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over the bytes of every verified output, so two runs with one seed
/// can be compared by a single 64-bit value.
class Digest {
 public:
  void add(std::string_view bytes) noexcept;
  void add(std::uint64_t value) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  void add_separator() noexcept;

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One timed call: name, [start, end) in ns since the tracer's epoch, the
/// enclosing span (-1 for a root) and the request it belongs to (0 = set-up).
struct Span {
  std::uint32_t name = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Spans and counters are recorded only while enabled.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_request(std::uint64_t request) noexcept { request_ = request; }

  /// Run `fn` inside a span named `name` (a string literal).
  template <typename Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    if (!enabled_) return fn();
    const Scope scope(*this, name);
    return fn();
  }

  void count(const char* name, std::uint64_t n) {
    if (enabled_) counts_[name] += n;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// {"names":[...],"spans":[[name,parent,request,start_ns,end_ns],...]}
  void write_json(std::ostream& os) const;

 private:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::uint32_t intern(const char* name);

  bool enabled_ = false;
  std::uint64_t request_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the open spans, innermost last
  std::vector<std::string> names_;
  std::map<std::string_view, std::uint32_t> name_ids_;  ///< views of literals
  std::map<std::string, std::uint64_t> counts_;
};

/// Per span name: summed duration, self time (duration minus the part its
/// children cover) and call count.
struct SpanTotals {
  double busy_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(const Tracer& tracer);

/// Linear-interpolated percentile (0..100) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);
[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// "model name" from /proc/cpuinfo ("unknown" when absent).
[[nodiscard]] std::string cpu_model();

}  // namespace perfbench
