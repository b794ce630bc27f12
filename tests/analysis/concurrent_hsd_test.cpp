// Regression test for a data race: analyze_stage used to write into a
// `mutable` member from a const method, so concurrent callers sharing one
// analyzer corrupted each other's link loads. The analyzer is now immutable
// after construction and allocates its per-call state; this test hammers
// one shared analyzer (and the certifier) from several threads and must run
// clean under ThreadSanitizer (-DFTCF_SANITIZE=thread) while matching the
// serial answers exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/hsd.hpp"
#include "check/certify.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::analysis {
namespace {

TEST(ConcurrentHsd, SharedAnalyzerDistinctWorkspacesMatchSerial) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const HsdAnalyzer analyzer(fabric, tables);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence seq = cps::shift(128);

  // Serial reference: per-stage max HSD.
  std::vector<std::uint32_t> expected(seq.num_stages());
  for (std::size_t s = 0; s < seq.num_stages(); ++s) {
    const auto flows = ordering.map_stage(seq.stages[s]);
    expected[s] = analyzer.analyze_stage(flows).max_hsd;
  }

  // Concurrent: 8 threads share the analyzer and stride over the stages.
  // Repeated so every stage is analyzed by several threads over the run.
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint32_t kRounds = 4;
  std::vector<std::uint32_t> got(kThreads * seq.num_stages(), 0u);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        for (std::size_t s = t % kThreads; s < seq.num_stages();
             s += kThreads) {
          const auto flows = ordering.map_stage(seq.stages[s]);
          got[t * seq.num_stages() + s] =
              analyzer.analyze_stage(flows).max_hsd;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::uint32_t t = 0; t < kThreads; ++t)
    for (std::size_t s = t % kThreads; s < seq.num_stages(); s += kThreads)
      EXPECT_EQ(got[t * seq.num_stages() + s], expected[s])
          << "thread " << t << " stage " << s;
}

TEST(ConcurrentHsd, AnalyzeSequenceFromManyThreadsAgrees) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence seq = cps::recursive_doubling(16);
  const auto avg_max_hsd = [&] {
    return check::summarize(check::certify_contention_freedom(
                                fabric, tables, ordering, seq))
        .avg_max_hsd;
  };

  const double serial = avg_max_hsd();

  constexpr std::uint32_t kThreads = 4;
  std::vector<double> means(kThreads, -1.0);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      means[t] = avg_max_hsd();
    });
  }
  for (auto& th : threads) th.join();
  for (const double mean : means)
    EXPECT_DOUBLE_EQ(mean, serial);
}

}  // namespace
}  // namespace ftcf::analysis
