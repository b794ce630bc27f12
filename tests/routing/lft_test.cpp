#include "routing/lft.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"
#include "util/expects.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;

TEST(ForwardingTables, StartsUnprogrammed) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables(fabric);
  EXPECT_FALSE(tables.complete());
  EXPECT_THROW((void)tables.out_port(fabric.switch_node(1, 0), 0),
               util::PreconditionError);
}

TEST(ForwardingTables, SetThenGet) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables(fabric);
  const topo::NodeId sw = fabric.switch_node(1, 2);
  tables.set_out_port(sw, 5, 7);
  EXPECT_EQ(tables.out_port(sw, 5), 7u);
}

TEST(ForwardingTables, RowHoldsEveryStoredEntry) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables(fabric);
  const topo::NodeId sw = fabric.switch_node(1, 2);
  tables.set_out_port(sw, 5, 7);
  const std::span<const std::uint32_t> row = tables.row(sw);
  ASSERT_EQ(row.size(), fabric.num_hosts());
  for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d)
    EXPECT_EQ(row[d], tables.entry(sw, d)) << "dest " << d;
  EXPECT_EQ(row[5], 7u);
  EXPECT_THROW((void)tables.row(fabric.host_node(0)),
               util::PreconditionError);
}

TEST(ForwardingTables, RejectsHostLookups) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables(fabric);
  EXPECT_THROW(tables.set_out_port(fabric.host_node(0), 1, 0),
               util::PreconditionError);
}

TEST(ForwardingTables, RejectsOutOfRange) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables(fabric);
  const topo::NodeId sw = fabric.switch_node(1, 0);
  EXPECT_THROW(tables.set_out_port(sw, 16, 0), util::PreconditionError);
  EXPECT_THROW(tables.set_out_port(sw, 0, 8), util::PreconditionError);
}

TEST(ForwardingTables, CompleteAfterFullProgramming) {
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables(fabric);
  for (const topo::NodeId sw : fabric.switch_ids())
    for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d)
      tables.set_out_port(sw, d, 0);
  EXPECT_TRUE(tables.complete());
}

}  // namespace
}  // namespace ftcf::route
