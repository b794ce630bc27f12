// Differential pins over the shared route walk: on one corrupted LFT, every
// analysis that can meet a stranded flow — the tolerant HSD analyzer, the
// one-shot certifier, the incremental certifier and the audit walk — names
// exactly the same flows unroutable; and a detour exactly one link longer
// than a host walk allows is a loop to all of them.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "analysis/hsd.hpp"
#include "check/certify.hpp"
#include "check/recertify.hpp"
#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "topology/presets.hpp"
#include "util/expects.hpp"

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

/// Port index on `from` whose cable leads to `to`.
std::uint32_t port_towards(const topo::Fabric& fabric, topo::NodeId from,
                           topo::NodeId to) {
  const topo::Node& n = fabric.node(from);
  for (std::uint32_t i = 0; i < n.num_down_ports + n.num_up_ports; ++i)
    if (fabric.neighbor(from, i) == to) return i;
  ADD_FAILURE() << "no cable between the two nodes";
  return 0;
}

TEST(UnroutableAgreement, LeafDetourOneLinkOverTheBoundIsALoopEverywhere) {
  // 2-level RLFT: 8 leaves of 4 hosts under 4 spines, so a host walk may
  // take 1 + max_route_links() = 7 links. Host 0 (leaf 0) to host 28
  // (leaf 7) is bent down and up again through leaves 1 and 2.
  const topo::Fabric fabric(topo::rlft2_full(4));
  ASSERT_EQ(route::max_route_links(fabric), 6u);
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const std::uint64_t dst = 28;
  const auto leaf = [&](std::uint64_t o) { return fabric.switch_node(1, o); };
  const auto spine = [&](std::uint64_t o) { return fabric.switch_node(2, o); };
  ASSERT_EQ(fabric.leaf_switch_of_host(dst), leaf(7));
  const auto route_via = [&](topo::NodeId from, topo::NodeId to) {
    tables.set_out_port(from, dst, port_towards(fabric, from, to));
  };
  route_via(leaf(0), spine(0));
  route_via(spine(0), leaf(1));
  route_via(leaf(1), spine(1));
  route_via(spine(1), leaf(2));
  route_via(leaf(2), spine(2));
  route_via(spine(2), leaf(7));

  const cps::Sequence one_flow{.name = "detour", .num_ranks = 32,
                               .stages = {cps::Stage{.pairs = {{0, dst}}}}};
  const auto ordering = order::NodeOrdering::topology(fabric);

  // Seven links from the leaf, eight with the injection link.
  std::size_t leaf_links = 0;
  EXPECT_EQ(route::walk_lft(fabric, tables, leaf(0), dst,
                            [&](const route::RouteHop&) {
                              ++leaf_links;
                              return route::kKeepWalking;
                            }),
            route::RouteStatus::kOk);
  EXPECT_EQ(leaf_links, 7u);
  EXPECT_EQ(route::walk_lft(fabric, tables, fabric.host_node(0), dst,
                            [](const route::RouteHop&) {
                              return route::kKeepWalking;
                            }),
            route::RouteStatus::kLoop);
  // The audit walk stops earlier, at the first down-up turn; it agrees
  // the route is not delivered.
  EXPECT_NE(route::walk_route(fabric, tables, 0, dst).status,
            route::RouteStatus::kOk);
  EXPECT_THROW((void)certify_contention_freedom(fabric, tables, ordering,
                                                one_flow),
               util::InvariantError);
  EXPECT_THROW(IncrementalCertifier(fabric, tables, ordering, one_flow),
               util::InvariantError);

  // Two links shorter (spine 1 descends straight to leaf 7), the detour is
  // within the bound: both certifiers deliver it, field for field.
  route_via(spine(1), leaf(7));
  const Certificate full =
      certify_contention_freedom(fabric, tables, ordering, one_flow);
  const Certificate incremental =
      IncrementalCertifier(fabric, tables, ordering, one_flow).certificate();
  ASSERT_EQ(full.stages.size(), 1u);
  EXPECT_TRUE(full.contention_free);
  EXPECT_EQ(full.stages[0].links_loaded, 6u);
  EXPECT_EQ(incremental.stages[0].links_loaded, 6u);
  EXPECT_TRUE(incremental.contention_free);
}

}  // namespace
}  // namespace ftcf::check
