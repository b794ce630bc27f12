#include "analysis/hsd.hpp"

#include <gtest/gtest.h>

#include "check/certify.hpp"
#include "cps/generators.hpp"
#include "routing/baselines.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::analysis {
namespace {

using topo::Fabric;

struct Fixture {
  Fixture() = default;
  Fabric fabric{topo::fig4b_pgft16()};
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  HsdAnalyzer analyzer{fabric, tables};
  order::NodeOrdering ordering = order::NodeOrdering::topology(fabric);
};

TEST(HsdAnalyzer, SingleFlowLoadsEveryLinkOnce) {
  Fixture fx;
  const cps::Pair flow{0, 15};
  std::vector<std::uint32_t> loads;
  const StageMetrics metrics = fx.analyzer.analyze_stage({&flow, 1}, &loads);
  EXPECT_EQ(metrics.max_hsd, 1u);
  EXPECT_EQ(metrics.num_flows, 1u);
  std::uint64_t used = 0;
  for (const auto load : loads) used += load;
  EXPECT_EQ(used, 4u);  // host->leaf->spine->leaf->host
}

TEST(HsdAnalyzer, SelfFlowsAreIgnored) {
  Fixture fx;
  const cps::Pair flow{3, 3};
  const StageMetrics metrics = fx.analyzer.analyze_stage({&flow, 1});
  EXPECT_EQ(metrics.num_flows, 0u);
  EXPECT_EQ(metrics.max_hsd, 0u);
}

TEST(HsdAnalyzer, ConvergingFlowsCountOnTheSharedLink) {
  Fixture fx;
  // Two sources in different leaves target the same destination: the final
  // leaf->host link carries both.
  const std::vector<cps::Pair> flows{{4, 0}, {8, 0}};
  const StageMetrics metrics = fx.analyzer.analyze_stage(flows);
  EXPECT_EQ(metrics.max_hsd, 2u);
  EXPECT_EQ(metrics.max_host_hsd, 2u);  // the NIC delivery link
}

TEST(HsdAnalyzer, ShiftUnderDModKAndTopologyOrderIsCongestionFree) {
  Fixture fx;
  const cps::Sequence seq = cps::shift(16);
  const check::Certificate cert = check::certify_contention_freedom(
      fx.fabric, fx.tables, fx.ordering, seq);
  const check::SequenceMetrics metrics = check::summarize(cert);
  EXPECT_EQ(metrics.worst_stage_hsd, 1u);
  EXPECT_DOUBLE_EQ(metrics.avg_max_hsd, 1.0);
  EXPECT_EQ(cert.stages.size(), 15u);
}

TEST(HsdAnalyzer, RandomOrderDegradesShift) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const cps::Sequence seq = cps::shift(128);
  const auto random_order = order::NodeOrdering::random(fabric, 7);
  const auto topo_order = order::NodeOrdering::topology(fabric);
  const auto avg_max_hsd = [&](const order::NodeOrdering& ordering) {
    return check::summarize(check::certify_contention_freedom(
                                fabric, tables, ordering, seq))
        .avg_max_hsd;
  };
  const double random_hsd = avg_max_hsd(random_order);
  const double topo_hsd = avg_max_hsd(topo_order);
  EXPECT_DOUBLE_EQ(topo_hsd, 1.0);
  EXPECT_GT(random_hsd, 1.5);
}

TEST(HsdAnalyzer, UpDownSplitIsReported) {
  Fixture fx;
  // All four hosts of leaf 0 send to the four hosts of leaf 1 in a pattern
  // whose up-going ports collide under D-Mod-K: all destinations equal mod 4.
  const std::vector<cps::Pair> flows{{0, 4}, {1, 8}, {2, 12}, {3, 4}};
  // dst 4, 8, 12 share residue 0 mod 4; dst 4 repeated also stresses down.
  const StageMetrics metrics = fx.analyzer.analyze_stage(flows);
  EXPECT_GE(metrics.max_up_hsd, 3u);
}

TEST(HsdAnalyzer, EmptyStagesContributeNothing) {
  Fixture fx;
  cps::Sequence seq{.name = "custom", .num_ranks = 16, .stages = {}};
  seq.stages.push_back(cps::Stage{});                  // empty
  seq.stages.push_back(cps::shift_stage(16, 4));       // clean
  const check::Certificate cert = check::certify_contention_freedom(
      fx.fabric, fx.tables, fx.ordering, seq);
  const check::SequenceMetrics metrics = check::summarize(cert);
  EXPECT_EQ(cert.stages[0].max_hsd, 0u);
  EXPECT_DOUBLE_EQ(metrics.avg_max_hsd, 1.0);  // averaged over non-empty only
}

}  // namespace
}  // namespace ftcf::analysis
