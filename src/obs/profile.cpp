#include "obs/profile.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "util/mutex.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::obs {

namespace {

struct Slot {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

// Keyed by name text (not pointer): the same scope name may appear at
// several call sites and should aggregate into one row.
util::Mutex g_mutex;
std::map<std::string, Slot>& slots() FTCF_REQUIRES(g_mutex) {
  static std::map<std::string, Slot> s;
  return s;
}

std::string fmt_ns(double ns) {
  if (ns >= 1e9) return util::fmt_double(ns / 1e9, 2) + " s";
  if (ns >= 1e6) return util::fmt_double(ns / 1e6, 2) + " ms";
  if (ns >= 1e3) return util::fmt_double(ns / 1e3, 2) + " us";
  return util::fmt_double(ns, 0) + " ns";
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::add(const char* name, std::uint64_t ns) {
  const util::LockGuard lock(g_mutex);
  Slot& slot = slots()[name];
  ++slot.calls;
  slot.total_ns += ns;
  slot.max_ns = std::max(slot.max_ns, ns);
}

std::vector<Profiler::Entry> Profiler::entries() const {
  std::vector<Entry> out;
  {
    const util::LockGuard lock(g_mutex);
    for (const auto& [name, slot] : slots())
      out.push_back(Entry{name, slot.calls, slot.total_ns, slot.max_ns});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.name < b.name;
  });
  return out;
}

void Profiler::reset() {
  const util::LockGuard lock(g_mutex);
  slots().clear();
}

namespace {

void par_timing_sink(const char* label, const double* task_seconds,
                     std::size_t num_tasks) {
  const std::string entry = std::string("par.") + label;
  Profiler& profiler = Profiler::instance();
  for (std::size_t t = 0; t < num_tasks; ++t) {
    profiler.add(entry.c_str(), static_cast<std::uint64_t>(
                                    task_seconds[t] * 1e9));
  }
}

}  // namespace

void enable_par_timing() { par::set_timing_sink(&par_timing_sink); }

void Profiler::report(std::ostream& os) const {
  const std::vector<Entry> rows = entries();
  util::Table table({"scope", "calls", "total", "mean", "max"});
  table.set_title("profiling scopes (wall clock)");
  for (const Entry& e : rows) {
    const double mean =
        e.calls ? static_cast<double>(e.total_ns) / static_cast<double>(e.calls)
                : 0.0;
    table.add_row({e.name, std::to_string(e.calls),
                   fmt_ns(static_cast<double>(e.total_ns)), fmt_ns(mean),
                   fmt_ns(static_cast<double>(e.max_ns))});
  }
  if (rows.empty())
    table.add_row({"(no scopes recorded)", "0", "-", "-", "-"});
  table.print(os);
}

}  // namespace ftcf::obs
