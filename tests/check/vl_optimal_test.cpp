// Branch-and-bound lane-minimality prover: pristine fabrics certify one lane
// with zero search, a crown-shaped conflict graph (C6) pins the greedy
// first-fit at 3 lanes while the exact search finds and proves 2, a
// zero-node budget reports an honest [lower, upper] gap, a per-destination
// routing loop abandons the proof, and everything is thread-count identical.
#include "check/vl_optimal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/cdg.hpp"
#include "check/vl.hpp"
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

/// `num_down_ports`-th up port's peer, counting spines left to right.
NodeId spine(const Fabric& fabric, std::uint32_t index) {
  const NodeId leaf0 = leaf_of(fabric, 0);
  const std::uint32_t up0 = fabric.node(leaf0).num_down_ports;
  return fabric.port(fabric.port(fabric.port_id(leaf0, up0 + index)).peer)
      .node;
}

/// Close the classic 4-channel cross-destination cycle between dests `x`
/// (under leafI) and `y` (under leafJ) through the dedicated spine pair
/// (sX, sY): x detours sX -> leafJ -> sY, y detours sY -> leafI -> sX. Each
/// destination's own chain stays acyclic; the union is cyclic, so x and y
/// can never share a lane.
void add_conflict(const Fabric& fabric, ForwardingTables& tables,
                  std::uint64_t x, std::uint64_t y, NodeId sx, NodeId sy) {
  const NodeId leaf_i = leaf_of(fabric, x);
  const NodeId leaf_j = leaf_of(fabric, y);
  tables.set_out_port(sx, x, port_to(fabric, sx, leaf_j));
  tables.set_out_port(leaf_j, x, port_to(fabric, leaf_j, sy));
  tables.set_out_port(sy, y, port_to(fabric, sy, leaf_i));
  tables.set_out_port(leaf_i, y, port_to(fabric, leaf_i, sx));
}

/// Crown fabric: the conflict graph over {a1,b1,a2,b2,a3,b3} is K3,3 minus
/// the perfect matching (ai, bi) — a 6-cycle. First-fit in ascending
/// destination order (a1, b1, a2, b2, a3, b3) is forced onto 3 lanes;
/// the unique bipartition {a1,a2,a3} / {b1,b2,b3} needs only 2. Each of the
/// six conflicts detours through its own dedicated spine pair so the
/// conflicts never interact.
struct Crown {
  Fabric fabric{topo::parse_pgft("PGFT(2; 4,12; 1,12; 1,1)")};
  ForwardingTables tables;
  std::vector<std::uint64_t> a, b;

  Crown() : tables(route::DModKRouter{}.compute(fabric)) {
    for (std::uint64_t leaf = 0; leaf < 3; ++leaf) {
      a.push_back(4 * leaf);
      b.push_back(4 * leaf + 1);
    }
    std::uint32_t pair = 0;
    for (std::uint64_t i = 0; i < 3; ++i)
      for (std::uint64_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        add_conflict(fabric, tables, a[i], b[j], spine(fabric, 2 * pair),
                     spine(fabric, 2 * pair + 1));
        ++pair;
      }
  }
};

/// Run greedy + prover the way run_check does.
VlOptimality prove(const Fabric& fabric, const ForwardingTables& tables,
                   std::uint32_t max_lanes, VlAssignment& assignment,
                   const VlOptimalityOptions& options = {}) {
  std::vector<std::vector<std::uint64_t>> per_dest;
  assignment = propose_vl_assignment(fabric, tables, max_lanes, &per_dest);
  return prove_vl_optimality(fabric, per_dest, max_lanes, assignment, options);
}

TEST(VlOptimal, PristineFabricCertifiesOneLaneWithZeroSearch) {
  const Fabric fabric(topo::parse_pgft("PGFT(2; 4,4; 1,4; 1,1)"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  VlAssignment assignment;
  const VlOptimality opt = prove(fabric, tables, 4, assignment);

  EXPECT_TRUE(opt.optimal());
  EXPECT_EQ(opt.lower_bound, 1u);
  EXPECT_EQ(opt.upper_bound, 1u);
  EXPECT_EQ(opt.suspects, 0u);
  EXPECT_EQ(opt.conflict_edges, 0u);
  EXPECT_EQ(opt.nodes_explored, 0u) << "no suspects means no search at all";
  EXPECT_FALSE(opt.improved);
  EXPECT_TRUE(opt.clique.empty());
  EXPECT_EQ(assignment.num_lanes, 1u);
}

TEST(VlOptimal, TwoLaneAssignmentIsProvenMinimal) {
  const Fabric fabric(topo::parse_pgft("PGFT(2; 4,4; 1,4; 1,1)"));
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  add_conflict(fabric, tables, 0, 4, spine(fabric, 0), spine(fabric, 1));
  ASSERT_FALSE(analyze_cdg(fabric, tables).acyclic);

  VlAssignment assignment;
  const VlOptimality opt = prove(fabric, tables, 4, assignment);

  EXPECT_TRUE(opt.optimal());
  EXPECT_EQ(opt.lower_bound, 2u);
  EXPECT_EQ(opt.upper_bound, 2u);
  EXPECT_EQ(assignment.num_lanes, 2u);
  EXPECT_FALSE(opt.improved) << "greedy already found the optimum";
  // Three suspects, not two: dest 1's pristine chain leaf1 -> spine1 ->
  // leaf0 happens to run inside the cyclic SCC the detours created, so it
  // cannot be ruled out a priori — but it conflicts with nobody.
  EXPECT_EQ(opt.suspects, 3u);
  EXPECT_EQ(opt.conflict_edges, 1u);
  EXPECT_EQ(opt.clique, (std::vector<std::uint64_t>{0, 4}));
}

TEST(VlOptimal, CrownConflictGraphProvesGreedySuboptimal) {
  const Crown crown;
  ASSERT_FALSE(analyze_cdg(crown.fabric, crown.tables).acyclic);

  VlAssignment greedy =
      propose_vl_assignment(crown.fabric, crown.tables, 8, nullptr);
  ASSERT_EQ(greedy.num_lanes, 3u)
      << "first-fit in ascending order must walk into the crown trap";

  VlAssignment assignment;
  const VlOptimality opt = prove(crown.fabric, crown.tables, 8, assignment);

  EXPECT_TRUE(opt.optimal());
  EXPECT_TRUE(opt.improved) << "the exact search must beat first-fit";
  EXPECT_EQ(opt.lower_bound, 2u);
  EXPECT_EQ(opt.upper_bound, 2u);
  // The six crown destinations plus three conflict-free bystanders whose
  // pristine chains graze the cyclic SCCs.
  EXPECT_EQ(opt.suspects, 9u);
  EXPECT_EQ(opt.conflict_edges, 6u);
  EXPECT_EQ(opt.clique.size(), 2u) << "C6 is triangle-free";
  EXPECT_GT(opt.nodes_explored, 0u);

  // The replacement must be the real thing: 2 lanes, complete, and every
  // lane's restricted dependency graph acyclic.
  EXPECT_EQ(assignment.num_lanes, 2u);
  EXPECT_TRUE(assignment.complete());
  for (std::uint64_t i = 0; i < 3; ++i)
    for (std::uint64_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_NE(assignment.lane_of_dest[crown.a[i]],
                assignment.lane_of_dest[crown.b[j]])
          << "conflicting pair (a" << i << ", b" << j << ") shares a lane";
    }
  const VlCdgAnalysis analysis =
      analyze_cdg_per_vl(crown.fabric, crown.tables, assignment);
  ASSERT_EQ(analysis.lanes.size(), 2u);
  EXPECT_TRUE(analysis.all_acyclic());
}

TEST(VlOptimal, ZeroNodeBudgetReportsAnHonestGap) {
  const Crown crown;
  VlAssignment assignment;
  VlOptimalityOptions options;
  options.node_budget = 0;
  const VlOptimality opt =
      prove(crown.fabric, crown.tables, 8, assignment, options);

  EXPECT_TRUE(opt.provable());
  EXPECT_FALSE(opt.optimal());
  EXPECT_TRUE(opt.budget_exhausted);
  EXPECT_EQ(opt.lower_bound, 2u) << "the clique bound survives a budget trip";
  EXPECT_EQ(opt.upper_bound, 3u) << "greedy remains the best known";
  EXPECT_FALSE(opt.improved);
  EXPECT_EQ(assignment.num_lanes, 3u) << "the greedy proposal must stand";
}

TEST(VlOptimal, RoutingLoopAbandonsTheProof) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const NodeId leaf = leaf_of(fabric, 0);
  tables.set_out_port(leaf, 0, fabric.node(leaf).num_down_ports);

  VlAssignment assignment;
  const VlOptimality opt = prove(fabric, tables, 4, assignment);

  EXPECT_FALSE(opt.provable());
  EXPECT_FALSE(opt.optimal());
  ASSERT_EQ(opt.unfixable.size(), 1u);
  EXPECT_EQ(opt.unfixable.front(), 0u);
  EXPECT_EQ(opt.nodes_explored, 0u);
}

TEST(VlOptimal, VerdictIsIdenticalAcrossThreadCounts) {
  const Crown crown;
  const auto run = [&](std::uint32_t threads) {
    par::set_default_threads(threads);
    VlAssignment assignment;
    const VlOptimality opt = prove(crown.fabric, crown.tables, 8, assignment);
    return std::pair{opt, assignment};
  };

  const std::uint32_t saved = par::default_threads();
  const auto [opt1, asg1] = run(1);
  const auto [opt8, asg8] = run(8);
  par::set_default_threads(saved);

  EXPECT_EQ(opt1.lower_bound, opt8.lower_bound);
  EXPECT_EQ(opt1.upper_bound, opt8.upper_bound);
  EXPECT_EQ(opt1.clique, opt8.clique);
  EXPECT_EQ(opt1.suspects, opt8.suspects);
  EXPECT_EQ(opt1.conflict_edges, opt8.conflict_edges);
  EXPECT_EQ(opt1.nodes_explored, opt8.nodes_explored);
  EXPECT_EQ(asg1.lane_of_dest, asg8.lane_of_dest);
  EXPECT_EQ(asg1.num_lanes, asg8.num_lanes);
}

}  // namespace
}  // namespace ftcf::check
