// CDG deadlock analysis: acyclicity proofs for the library's routers on the
// paper's topologies, a crafted dependency cycle with its concrete chain,
// thread-count determinism, and a randomized differential of the dependency
// builders against brute-force references on hand-edited tables.
#include "check/cdg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "check/depgraph.hpp"
#include "check/vl.hpp"
#include "routing/adaptive.hpp"
#include "routing/dmodk.hpp"
#include "routing/router.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {
namespace {

using route::ForwardingTables;
using topo::Fabric;

Fabric fig4b() { return Fabric(topo::fig4b_pgft16()); }

/// Point `host`'s own-leaf entry at the leaf's first up port: the spine's
/// pristine entry sends it straight back down, closing a two-channel cycle.
topo::NodeId corrupt_leaf_upward(const Fabric& fabric, ForwardingTables& tables,
                                 std::uint64_t host) {
  const topo::NodeId leaf =
      fabric.port(fabric.port(fabric.port_id(fabric.host_node(host), 0)).peer)
          .node;
  tables.set_out_port(leaf, host, fabric.node(leaf).num_down_ports);
  return leaf;
}

TEST(Cdg, ProvesRoutersDeadlockFreeOnFig4b) {
  const Fabric fabric = fig4b();
  for (const auto kind : {route::RouterKind::kDModK, route::RouterKind::kFtree,
                          route::RouterKind::kUpDown}) {
    const auto tables = route::make_router(kind)->compute(fabric);
    const CdgAnalysis analysis = analyze_cdg(fabric, tables);
    EXPECT_TRUE(analysis.deadlock_free())
        << route::make_router(kind)->name() << " must be deadlock-free";
    EXPECT_EQ(analysis.down_up_turns, 0u)
        << route::make_router(kind)->name() << " must never turn down->up";
    EXPECT_GT(analysis.num_dependencies, 0u);
    EXPECT_TRUE(analysis.cycle.empty());
  }
}

TEST(Cdg, ProvesPaperClustersDeadlockFree) {
  for (const std::uint64_t nodes : {128ull, 324ull}) {
    const Fabric fabric(topo::paper_cluster(nodes));
    const auto tables = route::DModKRouter{}.compute(fabric);
    const CdgAnalysis analysis = analyze_cdg(fabric, tables);
    EXPECT_TRUE(analysis.acyclic) << nodes << "-node cluster";
    EXPECT_EQ(analysis.down_up_turns, 0u);
  }
}

TEST(Cdg, ProvesThreeLevelRlftDeadlockFree) {
  const Fabric fabric{topo::rlft3_top(4, 2)};
  const auto tables = route::DModKRouter{}.compute(fabric);
  const CdgAnalysis analysis = analyze_cdg(fabric, tables);
  EXPECT_TRUE(analysis.acyclic);
  EXPECT_EQ(analysis.down_up_turns, 0u);
}

TEST(Cdg, CraftedUpTurnClosesAConcreteCycle) {
  const Fabric fabric = fig4b();
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const topo::NodeId leaf = corrupt_leaf_upward(fabric, tables, 0);

  const CdgAnalysis analysis = analyze_cdg(fabric, tables);
  EXPECT_FALSE(analysis.deadlock_free());
  EXPECT_GT(analysis.down_up_turns, 0u);
  EXPECT_GE(analysis.cyclic_scc_count, 1u);
  ASSERT_EQ(analysis.cycle.size(), 2u)
      << "leaf->spine->leaf is a two-channel cycle";

  // The chain names the corrupted leaf and renders as c0 -> c1 -> c0.
  const std::string chain = cycle_to_string(fabric, analysis.cycle);
  EXPECT_NE(chain.find(fabric.node_name(leaf)), std::string::npos) << chain;
  EXPECT_EQ(static_cast<int>(std::count(chain.begin(), chain.end(), '>')), 2)
      << chain;

  // Each cycle member really is a channel out of a switch, and consecutive
  // channels meet at the switch the former leads into.
  for (std::size_t i = 0; i < analysis.cycle.size(); ++i) {
    const topo::Port& from = fabric.port(analysis.cycle[i]);
    const topo::Port& next =
        fabric.port(analysis.cycle[(i + 1) % analysis.cycle.size()]);
    EXPECT_EQ(fabric.node(from.node).kind, topo::NodeKind::kSwitch);
    EXPECT_EQ(fabric.port(from.peer).node, next.node)
        << "cycle must chain channel head to next channel tail";
  }
}

TEST(Cdg, EmptyTablesHaveNoDependencies) {
  const Fabric fabric = fig4b();
  const ForwardingTables tables(fabric);  // nothing programmed
  const CdgAnalysis analysis = analyze_cdg(fabric, tables);
  EXPECT_TRUE(analysis.acyclic);
  EXPECT_EQ(analysis.num_dependencies, 0u);
  EXPECT_GT(analysis.num_channels, 0u);
}

TEST(Cdg, SingleSwitchFabricHasNoChannels) {
  const Fabric fabric(topo::parse_pgft("PGFT(1; 4; 1; 1)"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const CdgAnalysis analysis = analyze_cdg(fabric, tables);
  EXPECT_TRUE(analysis.acyclic);
  EXPECT_EQ(analysis.num_channels, 0u);
  EXPECT_EQ(analysis.num_dependencies, 0u);
}

TEST(Cdg, AnalysisIsIdenticalAcrossThreadCounts) {
  const Fabric fabric(topo::paper_cluster(128));
  ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  corrupt_leaf_upward(fabric, tables, 0);  // non-trivial cycle content

  const std::uint32_t saved = par::default_threads();
  par::set_default_threads(1);
  const CdgAnalysis one = analyze_cdg(fabric, tables);
  par::set_default_threads(8);
  const CdgAnalysis eight = analyze_cdg(fabric, tables);
  par::set_default_threads(saved);

  EXPECT_EQ(one.num_channels, eight.num_channels);
  EXPECT_EQ(one.num_dependencies, eight.num_dependencies);
  EXPECT_EQ(one.down_up_turns, eight.down_up_turns);
  EXPECT_EQ(one.acyclic, eight.acyclic);
  EXPECT_EQ(one.cyclic_scc_count, eight.cyclic_scc_count);
  EXPECT_EQ(one.cycle, eight.cycle) << "same concrete cycle, any thread count";
}


void sort_unique(std::vector<std::uint64_t>& deps) {
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
}

/// The union of destination_dependencies over every destination `keep`
/// admits: the per-destination reference for the table builders.
template <typename Keep>
std::vector<std::uint64_t> destination_union(const Fabric& fabric,
                                             const ForwardingTables& tables,
                                             const ChannelIndex& ci,
                                             const Keep& keep) {
  const auto rows = tables.rows();
  std::vector<std::uint64_t> all;
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
    if (!keep(d)) continue;
    const std::vector<std::uint64_t> deps =
        destination_dependencies(fabric, rows, ci, d);
    all.insert(all.end(), deps.begin(), deps.end());
  }
  sort_unique(all);
  return all;
}

/// Every (candidate at u, candidate at the switch it reaches) pair of the
/// adaptive relation, straight from route::adaptive_candidates.
std::vector<std::uint64_t> brute_force_relation(const Fabric& fabric,
                                                const ForwardingTables& tables,
                                                const ChannelIndex& ci) {
  std::vector<std::uint64_t> all;
  for (const topo::NodeId u : fabric.switch_ids()) {
    for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
      const route::PortRange outs_u =
          route::adaptive_candidates(fabric, u, d, tables.entry(u, d));
      for (std::uint32_t i = 0; i < outs_u.count; ++i) {
        const topo::PortId e1 = fabric.port_id(u, outs_u.first + i);
        if (ci.dense[e1] == kNoChannel) continue;
        const topo::NodeId v = fabric.port(fabric.port(e1).peer).node;
        const route::PortRange outs_v =
            route::adaptive_candidates(fabric, v, d, tables.entry(v, d));
        for (std::uint32_t j = 0; j < outs_v.count; ++j) {
          const std::uint32_t c2 =
              ci.dense[fabric.port_id(v, outs_v.first + j)];
          if (c2 == kNoChannel) continue;
          all.push_back((std::uint64_t{ci.dense[e1]} << 32) | c2);
        }
      }
    }
  }
  sort_unique(all);
  return all;
}

/// Zero down->up turns proves a CDG acyclic on a levelled fabric: ordering
/// up channels by rising level, then down channels by falling level, every
/// other turn moves forward.
void expect_turn_free_is_acyclic(const CdgAnalysis& cdg,
                                 const std::string& where) {
  if (cdg.down_up_turns == 0) {
    EXPECT_TRUE(cdg.acyclic) << where;
  }
}

TEST(Cdg, BuildersMatchBruteForceOnRandomHandEdits) {
  constexpr std::uint32_t kLanes = 3;
  constexpr std::uint64_t kVariants = 24;
  const std::array<std::string, 2> specs = {"PGFT(2; 4,4; 1,2; 1,2)",
                                            "PGFT(3; 2,2,3; 1,2,2; 1,2,2)"};
  const std::array<std::uint64_t, 2> bases = {0x2701, 0x2702};
  std::uint64_t cyclic = 0;
  std::uint64_t edited_turn_free = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const Fabric fabric(topo::parse_pgft(specs[s]));
    const ChannelIndex ci = switch_channels(fabric);
    const ForwardingTables pristine = route::DModKRouter{}.compute(fabric);
    const std::span<const topo::NodeId> switches = fabric.switch_ids();
    const std::uint64_t n = fabric.num_hosts();
    for (std::uint64_t t = 0; t < kVariants; ++t) {
      util::Xoshiro256 rng(util::derive_seed(bases[s], t));
      const std::string where = specs[s] + " variant " + std::to_string(t);
      ForwardingTables tables = pristine;
      const std::uint64_t edits = 1 + rng.below(t + 1);
      for (std::uint64_t e = 0; e < edits; ++e) {
        const topo::NodeId sw = switches[rng.below(switches.size())];
        const std::uint64_t d = rng.below(n);
        const topo::Node& node = fabric.node(sw);
        if (rng.below(4) == 0)
          tables.clear_entry(sw, d);
        else
          tables.set_out_port(sw, d, static_cast<std::uint32_t>(rng.below(
                                         node.num_down_ports +
                                         node.num_up_ports)));
      }

      EXPECT_EQ(build_dependencies(fabric, tables, ci),
                destination_union(fabric, tables, ci,
                                  [](std::uint64_t) { return true; }))
          << where;
      EXPECT_EQ(build_relation_dependencies(fabric, tables, ci),
                brute_force_relation(fabric, tables, ci))
          << where;

      VlAssignment assignment;
      assignment.num_lanes = kLanes;
      for (std::uint64_t d = 0; d < n; ++d)
        assignment.lane_of_dest.push_back(
            static_cast<std::uint32_t>(rng.below(kLanes)));
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        EXPECT_EQ(
            build_dependencies(
                fabric, tables, ci,
                DependencyOptions{.lane_of_dest = assignment.lane_of_dest,
                                  .lane = lane}),
            destination_union(fabric, tables, ci,
                              [&](std::uint64_t d) {
                                return assignment.lane_of_dest[d] == lane;
                              }))
            << where << " lane " << lane;
      }

      const CdgAnalysis cdg = analyze_cdg(fabric, tables);
      expect_turn_free_is_acyclic(cdg, where);
      expect_turn_free_is_acyclic(analyze_adaptive_cdg(fabric, tables).cdg,
                                  where + " adaptive");
      for (const CdgAnalysis& lane :
           analyze_cdg_per_vl(fabric, tables, assignment).lanes)
        expect_turn_free_is_acyclic(lane, where + " per lane");
      if (!cdg.acyclic) ++cyclic;
      if (cdg.down_up_turns == 0 && !(tables == pristine)) ++edited_turn_free;
    }
  }
  // Both sides of the level-order lemma are exercised.
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(edited_turn_free, 0u);
}

}  // namespace
}  // namespace ftcf::check
