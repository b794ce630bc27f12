// Per-virtual-lane CDG search: one lane suffices on pristine fabrics, a
// crafted cross-destination cycle is broken by a 2-lane assignment, a
// per-destination routing loop is correctly reported unfixable, and the
// proposal is thread-count independent.
#include "check/vl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/cdg.hpp"
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

/// Port index on `from` whose cable reaches `to`.
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

/// Close a 4-channel dependency cycle spanning two destinations: dest h0
/// detours spine0 -> leaf1 -> spine1 -> leaf0, dest h1 detours
/// spine1 -> leaf0 -> spine0 -> leaf1. Each destination's own dependency
/// chain stays acyclic, so separating h0 and h1 onto different lanes breaks
/// the combined cycle — the case virtual lanes exist for.
struct CrossDestCycle {
  std::uint64_t h0 = 0;
  std::uint64_t h1 = 0;
};

CrossDestCycle corrupt_cross_destination(const Fabric& fabric,
                                         ForwardingTables& tables) {
  const CrossDestCycle hosts{0, fabric.node(leaf_of(fabric, 0)).num_down_ports};
  const NodeId leaf0 = leaf_of(fabric, hosts.h0);
  const NodeId leaf1 = leaf_of(fabric, hosts.h1);
  const std::uint32_t up0 = fabric.node(leaf0).num_down_ports;
  const NodeId spine0 =
      fabric.port(fabric.port(fabric.port_id(leaf0, up0)).peer).node;
  const NodeId spine1 =
      fabric.port(fabric.port(fabric.port_id(leaf0, up0 + 1)).peer).node;
  tables.set_out_port(spine0, hosts.h0, port_to(fabric, spine0, leaf1));
  tables.set_out_port(leaf1, hosts.h0, port_to(fabric, leaf1, spine1));
  tables.set_out_port(spine1, hosts.h1, port_to(fabric, spine1, leaf0));
  tables.set_out_port(leaf0, hosts.h1, port_to(fabric, leaf0, spine0));
  return hosts;
}

TEST(Vl, PristineRoutingNeedsOneLane) {
  const Fabric fabric(topo::parse_pgft("PGFT(2; 4,4; 1,4; 1,1)"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const VlAssignment assignment = propose_vl_assignment(fabric, tables, 4);
  EXPECT_EQ(assignment.num_lanes, 1u);
  EXPECT_TRUE(assignment.complete());
  const VlCdgAnalysis analysis = analyze_cdg_per_vl(fabric, tables, assignment);
  EXPECT_TRUE(analysis.all_acyclic());
  EXPECT_EQ(analysis.lanes.size(), 1u);
}

TEST(Vl, TwoLanesBreakACrossDestinationCycle) {
  const Fabric fabric(topo::parse_pgft("PGFT(2; 4,4; 1,4; 1,1)"));
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const CrossDestCycle hosts = corrupt_cross_destination(fabric, tables);

  ASSERT_FALSE(analyze_cdg(fabric, tables).acyclic)
      << "the detours must close a single-lane cycle";

  const VlAssignment assignment = propose_vl_assignment(fabric, tables, 2);
  EXPECT_EQ(assignment.num_lanes, 2u);
  EXPECT_TRUE(assignment.complete());
  EXPECT_NE(assignment.lane_of_dest[hosts.h0],
            assignment.lane_of_dest[hosts.h1])
      << "the two cycle-closing destinations must land on different lanes";

  const VlCdgAnalysis analysis = analyze_cdg_per_vl(fabric, tables, assignment);
  ASSERT_EQ(analysis.lanes.size(), 2u);
  EXPECT_TRUE(analysis.all_acyclic());
  for (const CdgAnalysis& lane : analysis.lanes) EXPECT_TRUE(lane.acyclic);

  const std::string rendered = vl_assignment_to_string(assignment);
  EXPECT_NE(rendered.find("2 lane(s)"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("lane 1"), std::string::npos) << rendered;
}

TEST(Vl, PerDestinationRoutingLoopIsUnfixableByLanes) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  // Host 0's own-leaf entry points back up: its packets loop leaf -> spine
  // -> leaf forever. That cycle lives inside destination 0's own dependency
  // set, so no lane count can break it.
  const NodeId leaf = leaf_of(fabric, 0);
  tables.set_out_port(leaf, 0, fabric.node(leaf).num_down_ports);

  const VlAssignment assignment = propose_vl_assignment(fabric, tables, 4);
  EXPECT_FALSE(assignment.complete());
  ASSERT_EQ(assignment.unassigned.size(), 1u);
  EXPECT_EQ(assignment.unassigned.front(), 0u);
  EXPECT_EQ(assignment.lane_of_dest[0], kNoLane);
  const std::string rendered = vl_assignment_to_string(assignment);
  EXPECT_NE(rendered.find("unassigned"), std::string::npos) << rendered;
}

TEST(Vl, ProposalIsIdenticalAcrossThreadCounts) {
  const Fabric fabric(topo::parse_pgft("PGFT(2; 4,4; 1,4; 1,1)"));
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  corrupt_cross_destination(fabric, tables);

  const std::uint32_t saved = par::default_threads();
  par::set_default_threads(1);
  const VlAssignment one = propose_vl_assignment(fabric, tables, 2);
  par::set_default_threads(8);
  const VlAssignment eight = propose_vl_assignment(fabric, tables, 2);
  par::set_default_threads(saved);

  EXPECT_EQ(one.num_lanes, eight.num_lanes);
  EXPECT_EQ(one.lane_of_dest, eight.lane_of_dest);
  EXPECT_EQ(one.unassigned, eight.unassigned);
}

}  // namespace
}  // namespace ftcf::check
