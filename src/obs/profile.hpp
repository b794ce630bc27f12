// Wall-clock profiling scopes for the library's construction-heavy phases
// (routing-table computation, fabric build, simulator runs).
//
//   FTCF_PROF_SCOPE("dmodk_build");
//
// drops an RAII timer whose duration is accumulated into a process-global
// registry keyed by name. Cost model:
//   * compiled out entirely under -DFTCF_OBS_DISABLED (the macro expands to
//     nothing);
//   * with profiling compiled in but not enabled at runtime (the default),
//     a scope costs one relaxed atomic load and a branch;
//   * enabled, it costs two steady_clock reads and one mutex-guarded map
//     update at scope exit — fine for the coarse phases it instruments,
//     which is why none of the hooks sit on per-event simulator paths.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ftcf::obs {

class Profiler {
 public:
  struct Entry {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  [[nodiscard]] static Profiler& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Fold one timed scope into the named entry (thread-safe).
  void add(const char* name, std::uint64_t ns);

  /// Snapshot of all entries, sorted by descending total time.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Drop all accumulated entries (enabled flag unchanged).
  void reset();

  /// Render the entries as an aligned table ("scope | calls | total | mean |
  /// max"); prints a placeholder line when nothing was recorded.
  void report(std::ostream& os) const;

 private:
  Profiler() = default;
  std::atomic<bool> enabled_{false};
};

/// RAII timer; use via FTCF_PROF_SCOPE, not directly.
class ProfScope {
 public:
  explicit ProfScope(const char* name) noexcept {
    if (Profiler::instance().enabled()) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (name_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    Profiler::instance().add(name_, static_cast<std::uint64_t>(ns));
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  const char* name_ = nullptr;  ///< non-null iff armed at construction
  std::chrono::steady_clock::time_point start_{};
};

/// Route ftcf::par per-task timings into the observability layer: installs
/// a par::TimingSink that folds every task of a labelled parallel sweep
/// into the Profiler (entry "par.<label>"). Timing never feeds back into
/// scheduling, so results stay deterministic.
void enable_par_timing();

}  // namespace ftcf::obs

#define FTCF_PROF_CONCAT_INNER(a, b) a##b
#define FTCF_PROF_CONCAT(a, b) FTCF_PROF_CONCAT_INNER(a, b)

#ifndef FTCF_OBS_DISABLED
/// Time the enclosing scope under `name` (a string literal) when profiling
/// is enabled via Profiler::set_enabled(true).
#define FTCF_PROF_SCOPE(name) \
  ::ftcf::obs::ProfScope FTCF_PROF_CONCAT(ftcf_prof_scope_, __COUNTER__) { \
    name                                                                   \
  }
#else
#define FTCF_PROF_SCOPE(name) static_cast<void>(0)
#endif
