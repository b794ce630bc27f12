// Adaptive-closure CDG prover: the routing relation the simulator's adaptive
// mode runs, pristine D-Mod-K fabrics stay deadlock-free under any
// up-port policy, and a single corrupted descent entry opens a cycle that
// only the adaptive closure can see — the deterministic CDG stays acyclic.
#include "check/cdg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "routing/adaptive.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {
namespace {

using route::ForwardingTables;
using topo::Fabric;
using topo::NodeId;

NodeId leaf_of(const Fabric& fabric, std::uint64_t host) {
  return fabric
      .port(fabric.port(fabric.port_id(fabric.host_node(host), 0)).peer)
      .node;
}

std::uint32_t port_to(const Fabric& fabric, NodeId from, NodeId to) {
  const topo::Node& node = fabric.node(from);
  for (std::uint32_t i = 0; i < node.num_down_ports + node.num_up_ports; ++i) {
    const topo::PortId peer = fabric.port(fabric.port_id(from, i)).peer;
    if (peer != topo::kInvalidPort && fabric.port(peer).node == to) return i;
  }
  ADD_FAILURE() << "no cable " << fabric.node_name(from) << " -> "
                << fabric.node_name(to);
  return 0;
}

TEST(AdaptiveCdg, RelationMirrorsTheSimulatorSemantics) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);

  const NodeId leaf0 = leaf_of(fabric, 0);
  const std::uint32_t down = fabric.node(leaf0).num_down_ports;
  const std::uint32_t up = fabric.node(leaf0).num_up_ports;

  // Ancestor of the destination: exactly the LFT entry.
  const route::PortRange own =
      route::adaptive_candidates(fabric, leaf0, 0, tables.entry(leaf0, 0));
  ASSERT_EQ(own.count, 1u);
  EXPECT_EQ(own.first, tables.out_port(leaf0, 0));
  EXPECT_LT(own.first, down) << "descent must use a down port";

  // Not an ancestor: every up port, whatever the tables say.
  const std::uint64_t remote = fabric.num_hosts() - 1;
  ASSERT_FALSE(fabric.is_ancestor_of_host(leaf0, remote));
  const route::PortRange ascent =
      route::adaptive_candidates(fabric, leaf0, remote,
                                  tables.entry(leaf0, remote));
  EXPECT_EQ(ascent.first, down);
  EXPECT_EQ(ascent.count, up);

  // Ancestor with no programmed entry: no candidates.
  ForwardingTables holed = tables;
  holed.clear_entry(leaf0, 0);
  EXPECT_EQ(
      route::adaptive_candidates(fabric, leaf0, 0, holed.entry(leaf0, 0)).count,
      0u);

  const route::AdaptiveRelationStats stats =
      route::adaptive_relation_stats(fabric, tables);
  EXPECT_EQ(stats.max_fanout, up);
  EXPECT_GT(stats.candidates, stats.pairs)
      << "the relation must be strictly wider than a function";
}

TEST(AdaptiveCdg, PristineDModKIsDeadlockFreeUnderAnyUpPortPolicy) {
  for (const char* spec :
       {"PGFT(2; 4,4; 1,2; 1,2)", "PGFT(2; 4,4; 1,4; 1,1)",
        "PGFT(3; 2,4,4; 1,2,2; 1,1,1)"}) {
    const Fabric fabric(topo::parse_pgft(spec));
    const auto tables = route::DModKRouter{}.compute(fabric);
    const AdaptiveCdgAnalysis analysis = analyze_adaptive_cdg(fabric, tables);
    EXPECT_TRUE(analysis.deadlock_free()) << spec;
    EXPECT_TRUE(analysis.cdg.cycle.empty()) << spec;
    EXPECT_GT(analysis.relation_pairs, 0u) << spec;
    // The union graph contains at least the deterministic dependencies.
    const CdgAnalysis det = analyze_cdg(fabric, tables);
    EXPECT_GE(analysis.cdg.num_dependencies, det.num_dependencies) << spec;
  }
}

TEST(AdaptiveCdg, OneCorruptDescentIsInvisibleDeterministicAllyButCyclicAdaptively) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);

  // Dest 1 deterministically ascends into spine column 1 from every leaf, so
  // nothing deterministic ever enters the column-0 spines for dest 1. Point
  // one column-0 spine's dest-1 entry at the wrong leaf: the deterministic
  // CDG cannot reach it, but an adaptive ascent may legally enter that spine
  // and then *must* take the corrupt descent — closing a cycle with the
  // wrong leaf's all-up choice.
  const NodeId leaf0 = leaf_of(fabric, 0);
  const NodeId leaf1 = leaf_of(fabric, 4);
  const std::uint32_t det_up = tables.out_port(leaf1, 1);
  const NodeId det_spine =
      fabric.port(fabric.port(fabric.port_id(leaf1, det_up)).peer).node;
  NodeId wrong_spine = topo::kInvalidNode;
  const std::uint32_t down = fabric.node(leaf0).num_down_ports;
  for (std::uint32_t q = 0; q < fabric.node(leaf0).num_up_ports; ++q) {
    const NodeId s =
        fabric.port(fabric.port(fabric.port_id(leaf0, down + q)).peer).node;
    if (s != det_spine) {
      wrong_spine = s;
      break;
    }
  }
  ASSERT_NE(wrong_spine, topo::kInvalidNode);
  tables.set_out_port(wrong_spine, 1, port_to(fabric, wrong_spine, leaf1));

  const CdgAnalysis det = analyze_cdg(fabric, tables);
  EXPECT_TRUE(det.acyclic)
      << "the deterministic tables must look perfectly healthy";

  const AdaptiveCdgAnalysis adaptive = analyze_adaptive_cdg(fabric, tables);
  EXPECT_FALSE(adaptive.deadlock_free())
      << "some legal sequence of up-port choices must deadlock";
  ASSERT_FALSE(adaptive.cdg.cycle.empty());
  // The rendered cycle must pass through the corrupted spine.
  bool through_corrupt = false;
  for (const topo::PortId pid : adaptive.cdg.cycle)
    if (fabric.port(pid).node == wrong_spine) through_corrupt = true;
  EXPECT_TRUE(through_corrupt)
      << cycle_to_string(fabric, adaptive.cdg.cycle);
}

TEST(AdaptiveCdg, VerdictIsIdenticalAcrossThreadCounts) {
  const Fabric fabric(topo::parse_pgft("PGFT(3; 2,4,4; 1,2,2; 1,1,1)"));
  const auto tables = route::DModKRouter{}.compute(fabric);

  const std::uint32_t saved = par::default_threads();
  par::set_default_threads(1);
  const AdaptiveCdgAnalysis one = analyze_adaptive_cdg(fabric, tables);
  par::set_default_threads(8);
  const AdaptiveCdgAnalysis eight = analyze_adaptive_cdg(fabric, tables);
  par::set_default_threads(saved);

  EXPECT_EQ(one.cdg.num_dependencies, eight.cdg.num_dependencies);
  EXPECT_EQ(one.cdg.acyclic, eight.cdg.acyclic);
  EXPECT_EQ(one.relation_pairs, eight.relation_pairs);
  EXPECT_EQ(one.relation_choices, eight.relation_choices);
  EXPECT_EQ(one.max_fanout, eight.max_fanout);
}

}  // namespace
}  // namespace ftcf::check
