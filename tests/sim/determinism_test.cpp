// Simulator determinism and conservation: identical configurations must
// produce bit-identical schedules, and no byte may be created or lost, under
// randomized workloads.
#include <gtest/gtest.h>

#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"

namespace ftcf::sim {
namespace {

using topo::Fabric;

std::vector<StageTraffic> random_workload(std::uint64_t hosts,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<StageTraffic> stages;
  for (int s = 0; s < 3; ++s) {
    StageTraffic st(hosts);
    for (std::uint64_t h = 0; h < hosts; ++h) {
      const std::uint64_t sends = rng.below(3);  // 0..2 messages per host
      for (std::uint64_t m = 0; m < sends; ++m) {
        std::uint64_t dst = rng.below(hosts - 1);
        if (dst >= h) ++dst;  // never self
        st.add(h, dst, 1 + rng.below(100'000));
      }
    }
    stages.push_back(std::move(st));
  }
  return stages;
}

class WorkloadSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeeds,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_P(WorkloadSeeds, PacketSimConservesBytes) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto workload = random_workload(16, GetParam());
  std::uint64_t offered = 0;
  for (const StageTraffic& st : workload) offered += st.total_bytes();

  PacketSim psim(fabric, tables);
  for (const auto mode : {Progression::kAsync, Progression::kSynchronized}) {
    const RunResult result = psim.run(workload, mode);
    EXPECT_EQ(result.bytes_delivered, offered);
  }
}

TEST_P(WorkloadSeeds, PacketSimIsDeterministic) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto workload = random_workload(16, GetParam() + 100);
  PacketSim a(fabric, tables);
  PacketSim b(fabric, tables);
  const RunResult ra = a.run(workload, Progression::kAsync);
  const RunResult rb = b.run(workload, Progression::kAsync);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.link_busy_ns, rb.link_busy_ns);
  EXPECT_EQ(ra.max_queue_depth, rb.max_queue_depth);
}

TEST(Determinism, PacketSimInstanceIsReusable) {
  // Back-to-back runs on one PacketSim must not leak state.
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto stages = traffic_from_cps(cps::ring(16), ordering, 16, 32768);
  PacketSim psim(fabric, tables);
  const RunResult first = psim.run(stages, Progression::kAsync);
  const RunResult second = psim.run(stages, Progression::kAsync);
  EXPECT_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.bytes_delivered, second.bytes_delivered);
}

}  // namespace
}  // namespace ftcf::sim
