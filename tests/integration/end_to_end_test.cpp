// Integration tests: the full pipeline of the paper, end to end.
//
//   topology -> D-Mod-K routing -> node order -> CPS -> {HSD, simulators,
//   collective content}
//
// Each test exercises several modules together on the paper's configurations.
#include <gtest/gtest.h>

#include "collectives/collectives.hpp"
#include "collectives/oracle.hpp"
#include "core/plan.hpp"
#include "core/theorems.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "topology/topo_io.hpp"
#include "util/rng.hpp"

namespace ftcf {
namespace {

TEST(EndToEnd, GroupedAllreduceIsCorrectAndCongestionFree) {
  // The §VI sequence must simultaneously (a) compute a correct allreduce and
  // (b) keep every link at HSD 1. Checked on a non-power-of-two RLFT.
  const topo::Fabric fabric(topo::PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}));
  const core::CollectivePlan plan(fabric);
  const cps::Sequence seq =
      plan.sequence_for(cps::CpsKind::kRecursiveDoubling);

  // (a) content correctness over the grouped stages.
  util::Xoshiro256 rng(5);
  std::vector<coll::Buffer> inputs(fabric.num_hosts());
  for (auto& buf : inputs) {
    buf.resize(4);
    for (auto& e : buf) e = static_cast<coll::Element>(rng.below(100));
  }
  const auto result =
      coll::allreduce_over_sequence(coll::ReduceOp::kSum, inputs, seq);
  const coll::Buffer expect = coll::oracle::reduce(coll::ReduceOp::kSum, inputs);
  for (std::uint64_t r = 0; r < fabric.num_hosts(); ++r)
    ASSERT_EQ(result.outputs[r], expect) << "rank " << r;

  // (b) congestion freedom of the same stages.
  const auto cert = plan.audit(seq);
  EXPECT_TRUE(cert.contention_free)
      << "worst HSD " << check::summarize(cert).worst_stage_hsd;
}

TEST(EndToEnd, OrderedShiftSustainsFullBandwidthInThePacketSim) {
  const topo::Fabric fabric(topo::paper_cluster(128));
  const core::CollectivePlan plan(fabric);
  const auto stages = sim::traffic_from_cps(
      cps::shift(fabric.num_hosts()), plan.ordering(), fabric.num_hosts(),
      128 * 1024);
  sim::PacketSim psim(fabric, plan.tables());
  const auto result = psim.run(stages, sim::Progression::kSynchronized);
  EXPECT_GT(result.normalized_bw, 0.85);
}

TEST(EndToEnd, RandomOrderLosesBandwidthOrderedDoesNot) {
  // The paper's ~40% degradation claim, reproduced in miniature: random
  // ordering costs a large fraction of the shift bandwidth; the plan's
  // ordering costs none.
  const topo::Fabric fabric(topo::paper_cluster(128));
  const core::CollectivePlan plan(fabric);
  const auto random_order = order::NodeOrdering::random(fabric, 11);

  const std::vector<std::size_t> sample{15, 31, 63, 95};
  const auto seq = cps::shift(fabric.num_hosts());
  const auto ordered_traffic = sim::traffic_from_cps(
      seq, plan.ordering(), fabric.num_hosts(), 256 * 1024, &sample);
  const auto random_traffic = sim::traffic_from_cps(
      seq, random_order, fabric.num_hosts(), 256 * 1024, &sample);

  sim::PacketSim psim(fabric, plan.tables());
  const double bw_ordered =
      psim.run(ordered_traffic, sim::Progression::kSynchronized).normalized_bw;
  const double bw_random =
      psim.run(random_traffic, sim::Progression::kSynchronized).normalized_bw;
  EXPECT_GT(bw_ordered, 0.85);
  EXPECT_LT(bw_random, 0.75 * bw_ordered);
}

TEST(EndToEnd, TopoFileRoundTripPreservesRoutingBehaviour) {
  const topo::Fabric original(topo::paper_cluster(324));
  const topo::Fabric reparsed =
      topo::from_topo_string(topo::to_topo_string(original));
  const auto t1 = route::DModKRouter{}.compute(original);
  const auto t2 = route::DModKRouter{}.compute(reparsed);
  for (const topo::NodeId sw : original.switch_ids())
    for (std::uint64_t d = 0; d < original.num_hosts(); d += 13)
      EXPECT_EQ(t1.out_port(sw, d), t2.out_port(sw, d));
}

TEST(EndToEnd, TheoremsHoldOnPaperSizedCluster) {
  const topo::Fabric fabric(topo::paper_cluster(324));
  EXPECT_TRUE(core::check_theorem1(fabric).holds);
  EXPECT_TRUE(core::check_theorem2(fabric).holds);
  EXPECT_TRUE(core::check_theorem3(fabric).holds);
}

}  // namespace
}  // namespace ftcf
