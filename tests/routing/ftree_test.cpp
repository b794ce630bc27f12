#include "routing/ftree.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "check/certify.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "topology/presets.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;
using topo::PgftSpec;

TEST(Ftree, TablesCompleteAndValid) {
  const Fabric fabric(topo::paper_cluster(128));
  const ForwardingTables tables = FtreeRouter{}.compute(fabric);
  EXPECT_TRUE(tables.complete());
  const auto report = validate_routing(fabric, tables);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? ""
                                                     : report.problems.front());
}

TEST(Ftree, MatchesClosedFormDModKOnSingleRailRlfts) {
  // The greedy counter walk must reproduce Eq. (1)'s tables exactly on
  // complete single-rail RLFTs — the paper's formula *describes* what the
  // deployed subnet-manager engine computes.
  for (const PgftSpec& spec : {
           topo::rlft2_full(4),
           topo::paper_cluster(128),
           PgftSpec({2, 2, 4}, {1, 2, 2}, {1, 1, 1}),
           PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),
       }) {
    const Fabric fabric(spec);
    const ForwardingTables ftree = FtreeRouter{}.compute(fabric);
    const ForwardingTables dmodk = DModKRouter{}.compute(fabric);
    for (const topo::NodeId sw : fabric.switch_ids())
      for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d)
        ASSERT_EQ(ftree.out_port(sw, d), dmodk.out_port(sw, d))
            << spec.to_string() << " switch " << fabric.node_name(sw)
            << " dest " << d;
  }
}

TEST(Ftree, ShiftIsCongestionFreeOnParallelRailRlfts) {
  // With parallel rails the counter-chosen rail may differ from the closed
  // form, but the behaviour must stay congestion-free.
  const Fabric fabric(topo::paper_cluster(324));  // p2 = 2
  const ForwardingTables tables = FtreeRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto metrics = check::summarize(check::certify_contention_freedom(
      fabric, tables, ordering, cps::shift(fabric.num_hosts())));
  EXPECT_EQ(metrics.worst_stage_hsd, 1u);
}

TEST(Ftree, BalancesLeafUpPortsExactly) {
  const Fabric fabric(topo::paper_cluster(128));
  const ForwardingTables tables = FtreeRouter{}.compute(fabric);
  const topo::NodeId leaf = fabric.switch_node(1, 3);
  const topo::Node& node = fabric.node(leaf);
  std::vector<std::uint32_t> load(node.num_up_ports, 0);
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d) {
    if (fabric.is_ancestor_of_host(leaf, d)) continue;
    ++load[tables.out_port(leaf, d) - node.num_down_ports];
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(Ftree, RejectsMultiCableHosts) {
  const Fabric fabric(topo::PgftSpec({4, 4}, {2, 4}, {1, 1}));
  EXPECT_THROW((void)FtreeRouter{}.compute(fabric), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::route
