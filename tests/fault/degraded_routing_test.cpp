// Degraded-mode D-Mod-K: pristine equivalence, fall-back order, and the
// reachability guarantees the rerouted tables must keep.
#include "routing/degraded.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <utility>

#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "topology/presets.hpp"

namespace ftcf::route {
namespace {

using fault::FaultState;
using fault::parse_faults;
using topo::Fabric;

bool same_tables(const Fabric& fabric, const ForwardingTables& a,
                 const ForwardingTables& b) {
  for (const topo::NodeId sw : fabric.switch_ids())
    for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
      if (a.has_entry(sw, d) != b.has_entry(sw, d)) return false;
      if (a.has_entry(sw, d) && a.out_port(sw, d) != b.out_port(sw, d))
        return false;
    }
  return true;
}

TEST(DegradedDmodk, PristineSpecReproducesClosedForm) {
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState state(fabric, parse_faults(""));
  DegradedStats stats;
  const auto degraded = compute_degraded_dmodk(state, &stats);
  const auto pristine = DModKRouter().compute(fabric);
  EXPECT_TRUE(same_tables(fabric, degraded, pristine));
  EXPECT_EQ(stats.entries_rerouted, 0u);
  EXPECT_EQ(stats.entries_unrouted, 0u);
}

TEST(DegradedDmodk, RateAndFlapFaultsDoNotChangeRouting) {
  // Degraded bandwidth and scripted flaps are simulator business; the static
  // tables must stay the contention-free closed form.
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState state(fabric,
                         parse_faults("rate:leaf0:4:0.5,flap:S1_1:5:50:200"));
  const auto degraded = compute_degraded_dmodk(state);
  EXPECT_TRUE(same_tables(fabric, degraded, DModKRouter().compute(fabric)));
}

TEST(DegradedDmodk, FallsBackToTheParallelRailFirst) {
  // fig4b has p2 = 2 parallel cables per (leaf, spine) pair. Killing one
  // must shift its traffic to the sibling rail of the *same* spine.
  const Fabric fabric(topo::fig4b_pgft16());
  const topo::NodeId leaf = fabric.switch_node(1, 0);
  const auto pristine = DModKRouter().compute(fabric);
  const FaultState state(fabric, parse_faults("link:leaf0:4"));
  DegradedStats stats;
  const auto degraded = compute_degraded_dmodk(state, &stats);
  EXPECT_GT(stats.entries_rerouted, 0u);

  const topo::Node& n = fabric.node(leaf);
  const topo::NodeId old_spine =
      fabric.port(fabric.port(fabric.port_id(leaf, 4)).peer).node;
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
    if (!pristine.has_entry(leaf, d) || pristine.out_port(leaf, d) != 4)
      continue;
    ASSERT_TRUE(degraded.has_entry(leaf, d));
    const std::uint32_t out = degraded.out_port(leaf, d);
    EXPECT_GE(out, n.num_down_ports);  // still ascending
    EXPECT_NE(out, 4u);
    const topo::NodeId new_spine =
        fabric.port(fabric.port(fabric.port_id(leaf, out)).peer).node;
    EXPECT_EQ(new_spine, old_spine);  // sibling rail, same parent
  }
}

TEST(DegradedDmodk, DeadSwitchEntriesStayUnprogrammed) {
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState state(fabric, parse_faults("switch:spine0"));
  const auto tables = compute_degraded_dmodk(state);
  const topo::NodeId spine = FaultState::resolve_node(fabric, "spine0");
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d)
    EXPECT_FALSE(tables.has_entry(spine, d));
  EXPECT_FALSE(tables.complete());
  // Live switches still route everything.
  EXPECT_TRUE(validate_lft(fabric, tables, &state).all_reachable());
}

/// Hosts reachable from `from` over up-then-down walks of the surviving
/// graph — the set any up*/down* routing can legally serve.
std::vector<std::uint64_t> updown_reachable(const Fabric& fabric,
                                            const FaultState& state,
                                            std::uint64_t from) {
  // BFS over (node, descending?) states: ascend freely, and once a walk
  // goes down a level it may never go up again.
  std::vector<std::array<bool, 2>> seen(fabric.num_nodes(), {false, false});
  std::vector<std::pair<topo::NodeId, bool>> frontier{
      {fabric.host_node(from), false}};
  seen[fabric.host_node(from)][0] = true;
  std::vector<std::uint64_t> hosts;
  while (!frontier.empty()) {
    const auto [at, descending] = frontier.back();
    frontier.pop_back();
    const topo::Node& n = fabric.node(at);
    for (std::uint32_t i = 0; i < n.num_down_ports + n.num_up_ports; ++i) {
      const bool up = i >= n.num_down_ports;
      if (up && descending) continue;
      const topo::PortId out = fabric.port_id(at, i);
      if (!state.link_up(out)) continue;
      const topo::NodeId next = fabric.port(fabric.port(out).peer).node;
      if (!state.node_up(next)) continue;
      const bool next_desc = descending || !up;
      if (seen[next][next_desc]) continue;
      seen[next][next_desc] = true;
      if (fabric.node(next).kind == topo::NodeKind::kHost) {
        hosts.push_back(fabric.node(next).ordinal);
        continue;
      }
      frontier.emplace_back(next, next_desc);
    }
  }
  return hosts;
}

TEST(DegradedDmodk, RandomDamageMatchesTheConnectivityOracle) {
  // 20 random switch-switch cables die on a 3-level RLFT. The degraded
  // tables must stay loop-free and route *exactly* the pairs an up*/down*
  // walk of the surviving graph can connect — no cul-de-sacs, no pairs
  // abandoned while a legal path exists.
  const Fabric fabric(topo::rlft3_top(4, 2));
  const FaultState state(fabric, parse_faults("rand-links:20:9"));
  DegradedStats stats;
  const auto tables = compute_degraded_dmodk(state, &stats);
  const LftAudit audit = validate_lft(fabric, tables, &state);
  EXPECT_TRUE(audit.clean())
      << (audit.problems.empty() ? "" : audit.problems.front());

  std::set<std::pair<std::uint64_t, std::uint64_t>> expected_unreachable;
  for (const std::uint64_t src : state.surviving_hosts()) {
    std::vector<bool> ok(fabric.num_hosts(), false);
    for (const std::uint64_t dst : updown_reachable(fabric, state, src))
      ok[dst] = true;
    for (const std::uint64_t dst : state.surviving_hosts())
      if (dst != src && !ok[dst]) expected_unreachable.insert({src, dst});
  }
  const std::set<std::pair<std::uint64_t, std::uint64_t>> actual(
      audit.unreachable.begin(), audit.unreachable.end());
  EXPECT_EQ(actual, expected_unreachable);
  EXPECT_EQ(audit.pairs_reachable + actual.size(), audit.pairs_checked);
}

TEST(DegradedDmodk, EveryRerouteKeepsUpDownOrder) {
  const Fabric fabric(topo::rlft3_top(4, 2));
  const FaultState state(fabric, parse_faults("switch:L2_S0,link:leaf1:4"));
  const auto tables = compute_degraded_dmodk(state);
  const LftAudit audit = validate_lft(fabric, tables, &state);
  for (const std::string& problem : audit.problems)
    ADD_FAILURE() << problem;
  EXPECT_TRUE(audit.all_reachable());
}

}  // namespace
}  // namespace ftcf::route
