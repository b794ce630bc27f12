// ftcf::par — deterministic parallel execution for the library's sweeps.
//
// A small fixed-size thread pool plus `parallel_for` / `parallel_map`
// helpers. Design constraints, in priority order:
//
//   1. *Determinism.* Parallel output must be byte-identical to serial
//      output. Every helper therefore assigns work by index (task i always
//      covers the same index range regardless of thread count or claim
//      order) and leaves result merging to the caller, who folds the
//      index-ordered results serially. Nothing here depends on timing.
//   2. *Race freedom.* Bodies receive a dense worker index in
//      [0, region_width), so callers can hand each worker private scratch
//      (see the per-worker StageLoads of check::certify_contention_freedom).
//   3. *No oversubscription.* A parallel_for issued from inside another
//      parallel_for body runs inline on the calling worker; only top-level
//      loops fan out.
//
// Thread count resolution: an explicit ForOptions::threads wins, else the
// process-wide default set by set_default_threads (the --threads flag),
// else std::thread::hardware_concurrency().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace ftcf::par {

/// std::thread::hardware_concurrency(), clamped to >= 1.
[[nodiscard]] std::uint32_t hardware_threads() noexcept;

/// Process-wide default worker count used when ForOptions::threads == 0.
/// Passing 0 restores the hardware default. Wired to --threads in the CLI
/// front ends; set it before the first parallel loop.
void set_default_threads(std::uint32_t n) noexcept;
[[nodiscard]] std::uint32_t default_threads() noexcept;

/// True on a thread currently executing a parallel_for body; such threads
/// run nested parallel loops inline instead of fanning out again.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Per-sweep timing callback: after a top-level parallel loop with a label
/// finishes, the sink receives each task's wall time in seconds. Reported
/// from the issuing thread, after all tasks completed. Timing is collected
/// only while a sink is installed; it never influences scheduling, so
/// results stay deterministic with or without one.
using TimingSink = void (*)(const char* label, const double* task_seconds,
                            std::size_t num_tasks);
void set_timing_sink(TimingSink sink) noexcept;
[[nodiscard]] TimingSink timing_sink() noexcept;

/// Fixed-size pool of persistent workers. The calling thread of run()
/// participates as worker 0; the pool owns num_threads() - 1 background
/// threads. Tasks are claimed dynamically (an atomic cursor), which only
/// affects *which worker* runs a task, never what the task computes.
class ThreadPool {
 public:
  /// threads == 0 means default_threads(). A pool of 1 spawns no threads.
  explicit ThreadPool(std::uint32_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::uint32_t num_threads() const noexcept;

  /// Execute task(i, worker) for i in [0, num_tasks), blocking until all
  /// complete. `worker` is dense in [0, max_workers). max_workers caps the
  /// participating workers (0 = all of num_threads()). The first exception
  /// thrown by a task is rethrown here after the batch drains; remaining
  /// tasks are skipped once an exception is recorded. Safe to call from
  /// several threads at once — batches are exclusive and queue up.
  void run(std::size_t num_tasks,
           const std::function<void(std::size_t, std::uint32_t)>& task,
           std::uint32_t max_workers = 0);

 private:
  struct Impl;
  void worker_loop(std::uint32_t worker);

  std::unique_ptr<Impl> impl_;
};

/// Options for parallel_for / parallel_map.
struct ForOptions {
  std::uint32_t threads = 0;    ///< 0 = default_threads()
  std::size_t grain = 1;        ///< consecutive indices per task
  const char* label = nullptr;  ///< timing-sink label (nullptr = untimed)
};

/// Number of distinct worker indices a parallel_for over n indices with
/// these options passes to its body: 1 when the loop would run inline
/// (nested region, single thread, or a single task), else the resolved
/// thread count. Size per-worker scratch with this.
[[nodiscard]] std::uint32_t region_width(std::size_t n,
                                         const ForOptions& options = {});

/// body(index, worker) for every index in [0, n), in parallel. Indices are
/// grouped into ceil(n / grain) tasks of `grain` consecutive indices; task
/// boundaries depend only on n and grain, never on the thread count.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::uint32_t)>& body,
                  const ForOptions& options = {});

/// out[i] = fn(i) for every i, in parallel; results are positioned by
/// index, so the returned vector is identical for any thread count. The
/// result type must be default-constructible and assignable.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn,
                                const ForOptions& options = {}) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(
      n, [&out, &fn](std::size_t i, std::uint32_t) { out[i] = fn(i); },
      options);
  return out;
}

}  // namespace ftcf::par
