#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftcf::par {
namespace {

/// Restores the process default so tests don't leak their thread setting.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::uint32_t n) : saved_(default_threads()) {
    set_default_threads(n);
  }
  ~ThreadsGuard() { set_default_threads(saved_); }

 private:
  std::uint32_t saved_;
};

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<std::uint32_t>> hits(257);
  pool.run(hits.size(), [&](std::size_t i, std::uint32_t worker) {
    EXPECT_LT(worker, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, MaxWorkersCapsWorkerIndices) {
  ThreadPool pool(4);
  std::atomic<std::uint32_t> max_seen{0};
  pool.run(
      64,
      [&](std::size_t, std::uint32_t worker) {
        std::uint32_t prev = max_seen.load();
        while (worker > prev && !max_seen.compare_exchange_weak(prev, worker)) {
        }
      },
      2);
  EXPECT_LT(max_seen.load(), 2u);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(16,
                        [](std::size_t i, std::uint32_t) {
                          if (i == 5) throw std::runtime_error("task 5");
                        }),
               std::runtime_error);
  // The pool survives an exceptional batch.
  std::atomic<std::uint32_t> count{0};
  pool.run(8, [&](std::size_t, std::uint32_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8u);
}

TEST(ParallelFor, CoversAllIndicesForAnyGrain) {
  ThreadsGuard guard(3);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{100}}) {
    std::vector<std::atomic<std::uint32_t>> hits(53);
    parallel_for(
        hits.size(),
        [&](std::size_t i, std::uint32_t) { hits[i].fetch_add(1); },
        ForOptions{.threads = 0, .grain = grain, .label = nullptr});
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i << " grain " << grain;
  }
}

TEST(ParallelMap, ResultsAreIndexOrderedForEveryThreadCount) {
  std::vector<std::vector<std::uint64_t>> runs;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    ThreadsGuard guard(threads);
    runs.push_back(parallel_map(
        100, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); }));
  }
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(runs[0][i], static_cast<std::uint64_t>(i * i));
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelFor, BodyGetsDenseWorkerIds) {
  ThreadsGuard guard(4);
  const std::uint32_t width = region_width(64, {});
  std::vector<std::uint32_t> workers(64);
  parallel_for(64, [&](std::size_t i, std::uint32_t worker) {
    workers[i] = worker;
  });
  for (const std::uint32_t w : workers) EXPECT_LT(w, width);
}

TEST(ParallelFor, NestedLoopsRunInline) {
  ThreadsGuard guard(4);
  std::atomic<bool> saw_nested_region{false};
  parallel_for(4, [&](std::size_t, std::uint32_t) {
    EXPECT_TRUE(in_parallel_region());
    // A nested loop must not fan out again: its region width is 1 and all
    // its iterations stay on the calling worker.
    EXPECT_EQ(region_width(16, {}), 1u);
    std::uint32_t max_worker = 0;
    parallel_for(16, [&](std::size_t, std::uint32_t worker) {
      max_worker = std::max(max_worker, worker);
    });
    EXPECT_EQ(max_worker, 0u);
    saw_nested_region.store(true);
  });
  EXPECT_FALSE(in_parallel_region());
  EXPECT_TRUE(saw_nested_region.load());
}

TEST(RegionWidth, SingleThreadOrSingleTaskIsInline) {
  {
    ThreadsGuard guard(1);
    EXPECT_EQ(region_width(100, {}), 1u);
  }
  ThreadsGuard guard(4);
  EXPECT_EQ(region_width(1, {}), 1u);
  EXPECT_EQ(region_width(0, {}), 1u);
  // 10 indices at grain 10 form a single task.
  EXPECT_EQ(region_width(10, ForOptions{.threads = 0, .grain = 10,
                                        .label = nullptr}),
            1u);
  EXPECT_EQ(region_width(100, {}), 4u);
  EXPECT_EQ(region_width(100, ForOptions{.threads = 2, .grain = 1,
                                         .label = nullptr}),
            2u);
}

TEST(TimingSink, ReceivesOneDurationPerTask) {
  static std::vector<std::pair<std::string, std::size_t>> calls;
  calls.clear();
  set_timing_sink(+[](const char* label, const double* seconds,
                      std::size_t num_tasks) {
    for (std::size_t t = 0; t < num_tasks; ++t) EXPECT_GE(seconds[t], 0.0);
    calls.emplace_back(label, num_tasks);
  });
  ThreadsGuard guard(2);
  parallel_for(
      10, [](std::size_t, std::uint32_t) {},
      ForOptions{.threads = 0, .grain = 3, .label = "test.sweep"});
  parallel_for(  // unlabeled: not reported
      10, [](std::size_t, std::uint32_t) {}, {});
  set_timing_sink(nullptr);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, "test.sweep");
  EXPECT_EQ(calls[0].second, 4u);  // ceil(10 / 3)
}

TEST(DefaultThreads, ZeroMeansHardwareConcurrency) {
  ThreadsGuard guard(0);
  EXPECT_EQ(default_threads(), hardware_threads());
  EXPECT_GE(hardware_threads(), 1u);
  set_default_threads(3);
  EXPECT_EQ(default_threads(), 3u);
}

}  // namespace
}  // namespace ftcf::par
