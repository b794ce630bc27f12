#include "topology/fabric.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include <set>

#include "topology/presets.hpp"

namespace ftcf::topo {
namespace {

TEST(Fabric, NodeAndPortCountsFig4b) {
  const Fabric fabric(fig4b_pgft16());
  EXPECT_EQ(fabric.num_hosts(), 16u);
  EXPECT_EQ(fabric.num_switches(), 6u);  // 4 leaves + 2 spines
  // Ports: 16 hosts*1 + 4 leaves*(4 down + 4 up) + 2 spines*8 down.
  EXPECT_EQ(fabric.num_ports(), 16u + 4 * 8 + 2 * 8);
}

TEST(Fabric, HostIndexingIsMixedRadix) {
  const Fabric fabric(fig4b_pgft16());
  for (std::uint64_t j = 0; j < 16; ++j) {
    const NodeId id = fabric.host_node(j);
    EXPECT_EQ(fabric.host_index(id), j);
    EXPECT_EQ(fabric.host_digit(j, 1), j % 4);
    EXPECT_EQ(fabric.host_digit(j, 2), j / 4);
  }
}

TEST(Fabric, LeafOfHostGroupsByM1) {
  const Fabric fabric(fig4b_pgft16());
  for (std::uint64_t j = 0; j < 16; ++j) {
    const NodeId leaf = fabric.leaf_switch_of_host(j);
    EXPECT_EQ(fabric.node(leaf).level, 1u);
    EXPECT_EQ(fabric.node(leaf).ordinal, j / 4);
  }
}

TEST(Fabric, EveryPortIsMutuallyWired) {
  const Fabric fabric(Fabric(PgftSpec({3, 5}, {1, 3}, {1, 1})));
  for (PortId pid = 0; pid < fabric.num_ports(); ++pid) {
    const Port& pt = fabric.port(pid);
    ASSERT_NE(pt.peer, kInvalidPort);
    EXPECT_EQ(fabric.port(pt.peer).peer, pid);
  }
}

TEST(Fabric, ParallelLinksFollowWiringRule) {
  // Fig. 4(b): each leaf connects to each of the 2 spines with 2 links; the
  // k-th uses up-port b + k*w2 and spine down-port a + k*m2.
  const Fabric fabric(fig4b_pgft16());
  for (std::uint64_t leaf = 0; leaf < 4; ++leaf) {
    const NodeId sw = fabric.switch_node(1, leaf);
    const Node& n = fabric.node(sw);
    ASSERT_EQ(n.num_up_ports, 4u);
    for (std::uint32_t q = 0; q < n.num_up_ports; ++q) {
      const PortId up = fabric.port_id(sw, n.num_down_ports + q);
      const Port& peer = fabric.port(fabric.port(up).peer);
      const Node& spine = fabric.node(peer.node);
      EXPECT_EQ(spine.level, 2u);
      EXPECT_EQ(spine.digits[1], q % 2u);          // parent column b = q mod w2
      EXPECT_EQ(peer.index % 4u, n.digits[1]);     // down-port r = a + k*m2
      EXPECT_EQ(peer.index / 4u, q / 2u);          // same parallel rail k
    }
  }
}

TEST(Fabric, AncestorTestMatchesDigits) {
  const Fabric fabric(rlft2_full(4));  // PGFT(2; 4,8; 1,4; 1,1), 32 hosts
  for (std::uint64_t leaf = 0; leaf < 8; ++leaf) {
    const NodeId sw = fabric.switch_node(1, leaf);
    for (std::uint64_t j = 0; j < fabric.num_hosts(); ++j) {
      EXPECT_EQ(fabric.is_ancestor_of_host(sw, j), j / 4 == leaf);
    }
  }
  // Every top switch is an ancestor of every host.
  for (std::uint64_t s = 0; s < fabric.switches_at_level(2); ++s) {
    const NodeId top = fabric.switch_node(2, s);
    for (std::uint64_t j = 0; j < fabric.num_hosts(); ++j)
      EXPECT_TRUE(fabric.is_ancestor_of_host(top, j));
  }
}

TEST(Fabric, NeighborsCrossOneLevel) {
  const Fabric fabric(rlft3_top(2, 2));  // tiny 3-level: PGFT(3; 2,2,2; 1,2,2)
  for (const NodeId sw : fabric.switch_ids()) {
    const Node& n = fabric.node(sw);
    for (std::uint32_t i = 0; i < n.num_down_ports + n.num_up_ports; ++i) {
      const NodeId nb = fabric.neighbor(sw, i);
      const std::uint32_t nb_level = fabric.node(nb).level;
      if (i < n.num_down_ports) EXPECT_EQ(nb_level, n.level - 1);
      else EXPECT_EQ(nb_level, n.level + 1);
    }
  }
}

TEST(Fabric, SwitchIdsCoverAllSwitches) {
  const Fabric fabric(fig4a_xgft16());
  std::set<NodeId> ids(fabric.switch_ids().begin(), fabric.switch_ids().end());
  EXPECT_EQ(ids.size(), fabric.num_switches());
  for (const NodeId id : ids)
    EXPECT_EQ(fabric.node(id).kind, NodeKind::kSwitch);
}

TEST(Fabric, NamesAreUnique) {
  const Fabric fabric(fig4b_pgft16());
  std::set<std::string> names;
  for (NodeId id = 0; id < fabric.num_nodes(); ++id)
    names.insert(fabric.node_name(id));
  EXPECT_EQ(names.size(), fabric.num_nodes());
}

TEST(Fabric, RejectsOutOfRangeQueries) {
  const Fabric fabric(fig4b_pgft16());
  EXPECT_THROW((void)fabric.host_node(16), util::PreconditionError);
  EXPECT_THROW((void)fabric.switch_node(0, 0), util::PreconditionError);
  EXPECT_THROW((void)fabric.switch_node(3, 0), util::PreconditionError);
  EXPECT_THROW((void)fabric.switch_node(1, 4), util::PreconditionError);
  EXPECT_THROW((void)fabric.host_digit(0, 0), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::topo
