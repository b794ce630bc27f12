#include "routing/trace.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "topology/presets.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;

TEST(Trace, SelfRouteIsEmpty) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  EXPECT_TRUE(trace_route(fabric, tables, 3, 3).empty());
}

TEST(Trace, FirstLinkLeavesTheSourceHost) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  const auto links = trace_route(fabric, tables, 2, 9);
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(fabric.port(links.front()).node, fabric.host_node(2));
}

TEST(Trace, HopsCountExcludesHostLink) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  // Switch hops are the traced links minus the host link.
  EXPECT_EQ(trace_route(fabric, tables, 0, 1).size() - 1, 1u);   // shared leaf
  EXPECT_EQ(trace_route(fabric, tables, 0, 15).size() - 1, 3u);  // via spine
  EXPECT_TRUE(trace_route(fabric, tables, 0, 0).empty());
}

TEST(Trace, UpDownPropertyHoldsOnDModK) {
  const Fabric fabric(topo::paper_cluster(324));
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  const auto report = validate_routing(fabric, tables, /*exhaustive_limit=*/400);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? ""
                                                     : report.problems.front());
}

TEST(Trace, LoopingTablesAreDetected) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = DModKRouter{}.compute(fabric);
  // Sabotage: leaf of host 0 bounces destination 15 back down to host 0's
  // port, creating a ping-pong between host and leaf... the host will resend
  // upward, so the walk exceeds the link budget and must throw.
  const topo::NodeId leaf = fabric.leaf_switch_of_host(0);
  tables.set_out_port(leaf, 15, 0);  // down port towards host 0
  EXPECT_THROW(trace_route(fabric, tables, 0, 15), util::InvariantError);
}

TEST(Trace, RejectsInvalidEndpoints) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  EXPECT_THROW(trace_route(fabric, tables, 0, 99), util::PreconditionError);
  EXPECT_THROW(trace_route(fabric, tables, 99, 0), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::route
