// Differential pin over the shared route walk: on one corrupted LFT, every
// analysis that can meet a stranded flow — the tolerant HSD analyzer, the
// one-shot certifier, the incremental certifier and the audit walk — names
// exactly the same flows unroutable.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "analysis/hsd.hpp"
#include "check/certify.hpp"
#include "check/recertify.hpp"
#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "topology/presets.hpp"

namespace ftcf::check {
namespace {

using FlowSet = std::set<std::pair<std::uint64_t, std::uint64_t>>;

TEST(UnroutableAgreement, EveryWalkerStrandsTheSameFlows) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  // Three unprogrammed entries stranding flows at different depths: a
  // spine's descent, a destination leaf's delivery and a source leaf's
  // ascent.
  const topo::NodeId leaf0 = fabric.leaf_switch_of_host(0);
  const topo::NodeId spine =
      fabric.neighbor(leaf0, tables.out_port(leaf0, 13));
  tables.clear_entry(spine, 13);
  tables.clear_entry(fabric.leaf_switch_of_host(9), 9);
  tables.clear_entry(fabric.leaf_switch_of_host(2), 6);

  // One flow per stage, so every per-stage count names one flow.
  const std::uint64_t n = fabric.num_hosts();
  cps::Sequence pairs{.name = "all-pairs", .num_ranks = n, .stages = {}};
  for (std::uint64_t s = 0; s < n; ++s)
    for (std::uint64_t d = 0; d < n; ++d)
      if (s != d) pairs.stages.push_back(cps::Stage{.pairs = {{s, d}}});
  const auto ordering = order::NodeOrdering::topology(fabric);

  FlowSet walked;
  for (const cps::Stage& stage : pairs.stages) {
    const cps::Pair flow = stage.pairs.front();
    if (route::walk_route(fabric, tables, flow.src, flow.dst).status ==
        route::RouteStatus::kUnrouted)
      walked.emplace(flow.src, flow.dst);
  }

  analysis::HsdAnalyzer analyzer(fabric, tables);
  analyzer.set_tolerate_unroutable(true);
  const Certificate full =
      certify_contention_freedom(fabric, tables, ordering, pairs);
  const Certificate incremental =
      IncrementalCertifier(fabric, tables, ordering, pairs).certificate();
  ASSERT_EQ(full.stages.size(), pairs.stages.size());
  ASSERT_EQ(incremental.stages.size(), pairs.stages.size());

  FlowSet by_hsd;
  FlowSet by_certify;
  FlowSet by_recertify;
  for (std::size_t k = 0; k < pairs.stages.size(); ++k) {
    const cps::Pair flow = pairs.stages[k].pairs.front();
    const std::pair<std::uint64_t, std::uint64_t> key{flow.src, flow.dst};
    if (analyzer.analyze_stage(pairs.stages[k].pairs).unroutable_flows == 1)
      by_hsd.insert(key);
    if (full.stages[k].unroutable_flows == 1) by_certify.insert(key);
    if (incremental.stages[k].unroutable_flows == 1) by_recertify.insert(key);
  }

  // Flows into 9 strand at its leaf from all 15 sources. D-Mod-K lifts
  // every flow into 13 through the same spine, so the 12 from outside 13's
  // leaf strand there. The 4 hosts of host 2's leaf cannot lift flows to 6.
  EXPECT_TRUE(walked.contains({0, 13}));
  EXPECT_FALSE(walked.contains({12, 13}));
  EXPECT_TRUE(walked.contains({8, 9}));
  EXPECT_TRUE(walked.contains({3, 6}));
  EXPECT_FALSE(walked.contains({4, 6}));
  EXPECT_EQ(walked.size(), 15u + 12u + 4u);
  EXPECT_EQ(by_hsd, walked);
  EXPECT_EQ(by_certify, walked);
  EXPECT_EQ(by_recertify, walked);
  EXPECT_FALSE(full.contention_free);
}

}  // namespace
}  // namespace ftcf::check
