// Randomized differential oracle for route::IncrementalRepair: seeded random
// sequences of cable and switch failures and repairs on small PGFTs, with
// the engine's tables, delta, bookkeeping and channel dependencies compared
// against a from-scratch recompute after every event. Two of the fabrics
// have p_l > 1 above the leaves, the only place the down-rail branch of the
// cable-repair dirty rule is exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "check/depgraph.hpp"
#include "routing/degraded.hpp"
#include "routing/incremental.hpp"
#include "topology/spec.hpp"
#include "util/rng.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;
using topo::NodeId;
using topo::PortId;

/// Destinations whose column differs between `a` and `b`, and the total
/// number of differing (switch, destination) slots.
struct TableDiff {
  std::vector<std::uint64_t> dests;
  std::uint64_t entries = 0;
};

TableDiff diff_tables(const Fabric& fabric, const ForwardingTables& a,
                      const ForwardingTables& b) {
  TableDiff out;
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
    std::uint64_t changed = 0;
    for (const NodeId sw : fabric.switch_ids())
      if (a.entry(sw, d) != b.entry(sw, d)) ++changed;
    if (changed > 0) out.dests.push_back(d);
    out.entries += changed;
  }
  return out;
}

/// Destinations with an alive switch that is unrouted or off its pristine
/// D-Mod-K port, recounted from the tables.
std::uint64_t count_non_pristine(const Fabric& fabric,
                                 const ForwardingTables& tables,
                                 const fault::LinkHealth& health) {
  std::uint64_t count = 0;
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
    for (const NodeId sw : fabric.switch_ids()) {
      if (!health.node_up(sw)) continue;
      if (tables.entry(sw, d) != pristine_dmodk_port(fabric, sw, d)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void expect_stats_eq(const DegradedStats& a, const DegradedStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.entries_programmed, b.entries_programmed) << where;
  EXPECT_EQ(a.entries_rerouted, b.entries_rerouted) << where;
  EXPECT_EQ(a.entries_unrouted, b.entries_unrouted) << where;
  EXPECT_EQ(a.unreachable_hosts, b.unreachable_hosts) << where;
}

/// Drive `events` random events from `seed` and check every oracle after
/// each one. At most two switches are down at a time so the fabric keeps
/// routable destinations; cable repairs favour cables that are down.
void run_sequence(const std::string& spec, std::uint64_t seed,
                  std::size_t events) {
  const Fabric fabric(topo::parse_pgft(spec));
  const std::vector<std::uint8_t> no_link_down(fabric.num_ports(), 0);
  const std::vector<std::uint8_t> no_node_down(fabric.num_nodes(), 0);
  IncrementalRepair repair(
      fabric, fault::LinkHealth{&fabric, &no_link_down, &no_node_down});
  util::Xoshiro256 rng(seed);

  std::vector<PortId> cables;
  for (PortId p = 0; p < fabric.num_ports(); ++p)
    if (p < fabric.port(p).peer) cables.push_back(p);
  const std::span<const NodeId> switches = fabric.switch_ids();
  std::vector<PortId> failed_cables;
  std::vector<NodeId> dead_switches;
  const check::ChannelIndex ci = check::switch_channels(fabric);

  for (std::size_t i = 0; i < events; ++i) {
    const ForwardingTables before = repair.tables();
    RepairDelta delta;
    std::string where = spec + " seed " + std::to_string(seed) + " event " +
                        std::to_string(i) + ": ";
    const std::uint64_t kind = rng.below(10);
    if (kind < 4) {
      const PortId c = cables[rng.below(cables.size())];
      where += "fail cable " + std::to_string(c);
      delta = repair.fail_cable(c);
      if (std::find(failed_cables.begin(), failed_cables.end(), c) ==
          failed_cables.end())
        failed_cables.push_back(c);
    } else if (kind < 8) {
      PortId c = cables[rng.below(cables.size())];
      if (!failed_cables.empty() && rng.below(4) != 0) {
        const std::size_t at = rng.below(failed_cables.size());
        c = failed_cables[at];
        failed_cables.erase(failed_cables.begin() +
                            static_cast<std::ptrdiff_t>(at));
      }
      where += "repair cable " + std::to_string(fabric.port(c).peer);
      // Either endpoint names the cable; use the other one here.
      delta = repair.repair_cable(fabric.port(c).peer);
    } else if (kind == 8 && dead_switches.size() < 2) {
      const NodeId sw = switches[rng.below(switches.size())];
      where += "fail switch " + fabric.node_name(sw);
      delta = repair.fail_switch(sw);
      if (std::find(dead_switches.begin(), dead_switches.end(), sw) ==
          dead_switches.end())
        dead_switches.push_back(sw);
    } else if (!dead_switches.empty()) {
      const std::size_t at = rng.below(dead_switches.size());
      const NodeId sw = dead_switches[at];
      dead_switches.erase(dead_switches.begin() +
                          static_cast<std::ptrdiff_t>(at));
      where += "repair switch " + fabric.node_name(sw);
      delta = repair.repair_switch(sw);
    } else {
      continue;
    }

    DegradedStats full_stats;
    const ForwardingTables full =
        compute_degraded_dmodk(fabric, repair.health(), &full_stats);
    ASSERT_TRUE(repair.tables() == full) << where;

    const TableDiff diff = diff_tables(fabric, before, repair.tables());
    std::vector<std::uint64_t> reported;
    std::set_union(delta.changed_dests.begin(), delta.changed_dests.end(),
                   delta.row_filled_dests.begin(),
                   delta.row_filled_dests.end(),
                   std::back_inserter(reported));
    EXPECT_EQ(reported, diff.dests) << where;
    EXPECT_EQ(delta.entries_changed, diff.entries) << where;

    expect_stats_eq(repair.stats(), full_stats, where);
    expect_stats_eq(delta.stats, full_stats, where);
    EXPECT_EQ(repair.non_pristine_dests(),
              count_non_pristine(fabric, full, repair.health()))
        << where;

    const auto full_rows = full.rows();
    std::vector<std::uint64_t> united;
    for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
      const std::vector<std::uint64_t> deps =
          check::destination_dependencies(fabric, full_rows, ci, d);
      united.insert(united.end(), deps.begin(), deps.end());
    }
    std::sort(united.begin(), united.end());
    united.erase(std::unique(united.begin(), united.end()), united.end());
    EXPECT_EQ(check::build_dependencies(fabric, repair.tables(), ci), united)
        << where;
  }
}

void run_seeds(const std::string& spec, std::uint64_t base) {
  for (std::uint64_t t = 0; t < 4; ++t) {
    run_sequence(spec, util::derive_seed(base, t), 150);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RepairOracle, TwoLevelRailsAtTheSpine) {
  run_seeds("PGFT(2; 4,4; 1,2; 1,2)", 0x2601);
}

TEST(RepairOracle, TwoLevelTwoUplinksPerLeafGroup) {
  run_seeds("PGFT(2; 4,4; 2,2; 1,2)", 0x2602);
}

TEST(RepairOracle, ThreeLevelSingleRail) {
  run_seeds("PGFT(3; 2,4,4; 1,2,2; 1,1,1)", 0x2603);
}

TEST(RepairOracle, ThreeLevelRailsAtEveryUpperLevel) {
  run_seeds("PGFT(3; 2,2,3; 1,2,2; 1,2,2)", 0x2604);
}

}  // namespace
}  // namespace ftcf::route
