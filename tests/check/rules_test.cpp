// Rule-ID drift guard. Two invariants keep the catalog, the analyzers and
// the docs from drifting apart:
//   * every emitted rule is in known_rule_ids() — enforced at emission time
//     by Diagnostics::add (pinned here), and re-checked over a battery of
//     run_check scenarios that exercises every analyzer;
//   * every catalog rule is actually emittable — the battery must cover the
//     whole catalog except the cross-check mismatch rules, which only an
//     implementation bug can produce.
// Adding a rule to the catalog without a scenario (or vice versa) fails here.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "cps/generators.hpp"
#include "fault/fault_spec.hpp"
#include "routing/degraded.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/expects.hpp"

namespace ftcf::check {
namespace {

using route::ForwardingTables;
using topo::Fabric;
using topo::NodeId;

/// Rules no healthy build can emit, pinned absent from the battery instead
/// of present. The mismatch rules each assert two independent analyses
/// agree; rlft-parallel-ports defends against miswired Fabric objects that
/// no current constructor can produce (Fabric always wires itself from the
/// spec — topo files are cross-checked against that wiring on load).
const std::set<std::string> kUnreachableByConstruction = {
    "cdg-walk-mismatch",
    "cert-symbolic-mismatch",
    "cert-telemetry-mismatch",
    "rlft-parallel-ports",
};

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

/// Classic two-destination cycle (as in vl_test): dest 0 detours
/// spine0 -> leaf1 -> spine1, dest |leaf| detours spine1 -> leaf0 -> spine0.
void corrupt_cross_destination(const Fabric& fabric, ForwardingTables& tables) {
  const std::uint64_t h1 = fabric.node(leaf_of(fabric, 0)).num_down_ports;
  const NodeId leaf0 = leaf_of(fabric, 0);
  const NodeId leaf1 = leaf_of(fabric, h1);
  const std::uint32_t up0 = fabric.node(leaf0).num_down_ports;
  const NodeId spine0 =
      fabric.port(fabric.port(fabric.port_id(leaf0, up0)).peer).node;
  const NodeId spine1 =
      fabric.port(fabric.port(fabric.port_id(leaf0, up0 + 1)).peer).node;
  tables.set_out_port(spine0, 0, port_to(fabric, spine0, leaf1));
  tables.set_out_port(leaf1, 0, port_to(fabric, leaf1, spine1));
  tables.set_out_port(spine1, h1, port_to(fabric, spine1, leaf0));
  tables.set_out_port(leaf0, h1, port_to(fabric, leaf0, spine0));
}

TEST(Rules, CatalogIsSortedUniqueAndWellFormed) {
  const auto rules = known_rule_ids();
  ASSERT_FALSE(rules.empty());
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end()))
      << "is_known_rule binary-searches the catalog";
  EXPECT_EQ(std::adjacent_find(rules.begin(), rules.end()), rules.end());
  for (const std::string_view rule : rules) {
    EXPECT_FALSE(rule.empty());
    for (const char c : rule)
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-')
          << "rule IDs are lowercase kebab-case: '" << rule << "'";
    EXPECT_TRUE(is_known_rule(rule)) << rule;
  }
  for (const std::string& rule : kUnreachableByConstruction)
    EXPECT_TRUE(is_known_rule(rule))
        << "mismatch allowlist entry '" << rule << "' left the catalog";
}

TEST(Rules, BlamePrefixResolvesToTheBaseRule) {
  EXPECT_TRUE(is_known_rule("blame-order-mismatch"));
  EXPECT_TRUE(is_known_rule("blame-cps-displacement"));
  EXPECT_FALSE(is_known_rule("blame-no-such-rule"));
  EXPECT_FALSE(is_known_rule("no-such-rule"));
  EXPECT_FALSE(is_known_rule(""));
}

TEST(Rules, EmittingAnUncataloguedRuleTripsTheInvariantGuard) {
  Diagnostics diag;
  EXPECT_THROW(diag.note("not-a-rule", "", "message"), util::InvariantError);
  EXPECT_THROW(diag.error("blame-not-a-rule", "", "m"), util::InvariantError);
  EXPECT_NO_THROW(diag.note("cdg-cycle", "", "m"));
  EXPECT_NO_THROW(diag.warning("blame-order-mismatch", "", "m"));
  EXPECT_EQ(diag.findings().size(), 2u)
      << "rejected findings must not be recorded";
}

/// Strip a blame- prefix so battery coverage counts the base rule.
std::string base_rule(const std::string& rule) {
  return rule.rfind("blame-", 0) == 0 ? rule.substr(6) : rule;
}

void collect(const CheckReport& report, std::set<std::string>& emitted) {
  for (const Finding& f : report.diagnostics.findings()) {
    EXPECT_TRUE(is_known_rule(f.rule)) << "emitted off-catalog: " << f.rule;
    emitted.insert(base_rule(f.rule));
  }
}

TEST(Rules, BatteryCoversTheWholeCatalog) {
  std::set<std::string> emitted;
  const Fabric fig4b(topo::fig4b_pgft16());

  {  // Pristine, every prover on: the -ok / certificate rules.
    const auto tables = route::DModKRouter{}.compute(fig4b);
    const auto ordering = order::NodeOrdering::topology(fig4b);
    const auto sequence = cps::shift(fig4b.num_hosts());
    CheckOptions options;
    options.ordering = &ordering;
    options.sequence = &sequence;
    options.certify = true;
    options.symbolic = true;
    options.symbolic_cross_check = true;
    options.tables_canonical_dmodk = true;
    options.replay_telemetry = true;
    options.propose_vls = 1;
    options.prove_vl_optimal = true;
    options.adaptive_closure = true;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Adversarial ring ordering: contention blame.
    const auto tables = route::DModKRouter{}.compute(fig4b);
    const auto ordering = order::NodeOrdering::adversarial_ring(fig4b);
    const auto sequence = cps::shift(fig4b.num_hosts());
    CheckOptions options;
    options.ordering = &ordering;
    options.sequence = &sequence;
    options.certify = true;
    // Symbolic on a non-identity order: declines (symbolic-inapplicable)
    // and the enumerative certifier produces the blame as before.
    options.symbolic = true;
    options.tables_canonical_dmodk = true;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Shuffled partial ordering + irregular stage: ordering/CPS lints.
    const auto tables = route::DModKRouter{}.compute(fig4b);
    const auto ordering = order::NodeOrdering(
        std::vector<std::uint64_t>{4, 2, 9}, fig4b.num_hosts());
    cps::Sequence crafted;
    crafted.name = "crafted";
    crafted.num_ranks = 8;
    crafted.stages.push_back(
        cps::Stage{{{0, 1}, {2, 5}}, cps::StageRole::kExchange});
    CheckOptions options;
    options.ordering = &ordering;
    options.sequence = &crafted;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Cross-destination cycle: deterministic + adaptive cycles, 2-lane fix.
    ForwardingTables tables = route::DModKRouter{}.compute(fig4b);
    corrupt_cross_destination(fig4b, tables);
    CheckOptions options;
    options.propose_vls = 2;
    options.adaptive_closure = true;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Same cycle, one lane only: greedy fails, the prover shows the gap.
    ForwardingTables tables = route::DModKRouter{}.compute(fig4b);
    corrupt_cross_destination(fig4b, tables);
    CheckOptions options;
    options.propose_vls = 1;
    options.prove_vl_optimal = true;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // One down->up turn without a cycle: discipline warning only.
    ForwardingTables tables = route::DModKRouter{}.compute(fig4b);
    const NodeId leaf1 = leaf_of(fig4b, 4);
    const std::uint32_t det_up = tables.out_port(leaf1, 1);
    const NodeId det_spine =
        fig4b.port(fig4b.port(fig4b.port_id(leaf1, det_up)).peer).node;
    const NodeId leaf0 = leaf_of(fig4b, 0);
    const std::uint32_t down = fig4b.node(leaf0).num_down_ports;
    for (std::uint32_t q = 0; q < fig4b.node(leaf0).num_up_ports; ++q) {
      const NodeId s =
          fig4b.port(fig4b.port(fig4b.port_id(leaf0, down + q)).peer).node;
      if (s == det_spine) continue;
      tables.set_out_port(s, 1, port_to(fig4b, s, leaf1));
      break;
    }
    collect(run_check(fig4b, tables), emitted);
  }
  {  // Lost host link, rebuilt tables: expected incompleteness.
    const fault::FaultState faults(fig4b, fault::parse_faults("link:H3:0"));
    const auto tables = route::compute_degraded_dmodk(faults);
    CheckOptions options;
    options.faults = &faults;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Lost spine + leaf uplink, rebuilt tables: structure lints.
    const fault::FaultState faults(
        fig4b, fault::parse_faults("switch:S2_0,link:S1_1:4"));
    const auto tables = route::compute_degraded_dmodk(faults);
    CheckOptions options;
    options.faults = &faults;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Stale tables over a failed link: hard routing errors.
    const auto tables = route::DModKRouter{}.compute(fig4b);
    const fault::FaultState faults(fig4b,
                                   fault::parse_faults("link:S1_0:4"));
    CheckOptions options;
    options.faults = &faults;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Every leaf uplink down: the leaf's hosts survive but cannot leave.
    const fault::FaultState faults(
        fig4b, fault::parse_faults(
                   "link:S1_0:4,link:S1_0:5,link:S1_0:6,link:S1_0:7"));
    const auto tables = route::compute_degraded_dmodk(faults);
    CheckOptions options;
    options.faults = &faults;
    collect(run_check(fig4b, tables, options), emitted);
  }
  {  // Structurally non-RLFT PGFTs: radix / single-cable lints.
    const Fabric radix(topo::parse_pgft("PGFT(2; 4,8; 1,2; 1,2)"));
    collect(run_check(radix, route::DModKRouter{}.compute(radix)), emitted);
    const Fabric cables(topo::parse_pgft("PGFT(2; 4,4; 2,2; 1,2)"));
    collect(run_check(cables, route::DModKRouter{}.compute(cables)), emitted);
  }
  {  // Baseline naming a rule the catalog does not know.
    const auto tables = route::DModKRouter{}.compute(fig4b);
    CheckOptions options;
    options.suppressions = Suppressions::parse_string("no-such-rule\n");
    collect(run_check(fig4b, tables, options), emitted);
  }

  for (const std::string& rule : kUnreachableByConstruction)
    EXPECT_FALSE(emitted.count(rule))
        << "cross-check mismatch fired on a healthy battery: " << rule;

  for (const std::string_view rule : known_rule_ids()) {
    const std::string id(rule);
    if (kUnreachableByConstruction.count(id)) continue;
    EXPECT_TRUE(emitted.count(id))
        << "catalog rule '" << id
        << "' is not emitted by any battery scenario; add one (or move it "
           "to the mismatch allowlist if only a bug can emit it)";
  }
  for (const std::string& rule : emitted)
    EXPECT_TRUE(is_known_rule(rule)) << rule;
}

}  // namespace
}  // namespace ftcf::check
