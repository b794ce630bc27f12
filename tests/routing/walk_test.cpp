// The shared LFT walk (route::walk_lft): every outcome it reports, from a
// host start and from a switch start, on hand-corrupted 16-node D-Mod-K
// tables.
#include "routing/trace.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <ostream>

#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/expects.hpp"

namespace ftcf::route {
namespace {

using topo::Fabric;
using topo::NodeId;

constexpr std::uint64_t kSrc = 0;   // under leaf S1_0
constexpr std::uint64_t kDst = 15;  // under leaf S1_3

/// Down-port index of `sw` that leads to node `child`.
std::uint32_t down_port_to(const Fabric& fabric, NodeId sw, NodeId child) {
  const topo::Node& n = fabric.node(sw);
  for (std::uint32_t i = 0; i < n.num_down_ports; ++i)
    if (fabric.neighbor(sw, i) == child) return i;
  ADD_FAILURE() << "no down port to the child";
  return 0;
}

/// The spine that D-Mod-K lifts kSrc -> kDst through.
NodeId spine_on_route(const Fabric& fabric, const ForwardingTables& tables) {
  const NodeId leaf = fabric.leaf_switch_of_host(kSrc);
  return fabric.neighbor(leaf, tables.out_port(leaf, kDst));
}

using Corrupt = std::function<void(const Fabric&, ForwardingTables&)>;

void pristine(const Fabric&, ForwardingTables&) {}

/// The destination's own leaf forgets it: the walk strands on arrival.
void unprogram_dst_leaf(const Fabric& fabric, ForwardingTables& tables) {
  tables.clear_entry(fabric.leaf_switch_of_host(kDst), kDst);
}

/// The spine sends kDst back down to the source leaf, which lifts it to
/// the same spine again: a leaf/spine ping-pong.
void spine_bounces(const Fabric& fabric, ForwardingTables& tables) {
  const NodeId spine = spine_on_route(fabric, tables);
  tables.set_out_port(
      spine, kDst,
      down_port_to(fabric, spine, fabric.leaf_switch_of_host(kSrc)));
}

/// The destination leaf delivers kDst to its neighbour host 14.
void deliver_to_neighbour(const Fabric& fabric, ForwardingTables& tables) {
  const NodeId leaf = fabric.leaf_switch_of_host(kDst);
  tables.set_out_port(leaf, kDst, tables.out_port(leaf, 14));
}

enum class Start { kHost, kSourceLeaf, kDestLeaf };

struct WalkCase {
  const char* name;
  Corrupt corrupt;
  Start start;
  /// Hop (1-based) at which the callback stops the walk with kDeadLink.
  std::optional<std::size_t> stop_at;
  RouteStatus expected;
  std::size_t links;  ///< links handed to the callback
};

// Print the case name, so test names never carry pointer bytes.
void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.name; }

class WalkLft : public ::testing::TestWithParam<WalkCase> {};

TEST_P(WalkLft, ReportsTheOutcomeAndEveryLinkInOrder) {
  const WalkCase& c = GetParam();
  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = DModKRouter{}.compute(fabric);
  c.corrupt(fabric, tables);
  // The bounce makes the walk revisit links, so the bound is what stops it.
  const std::size_t loop_links = max_route_links(fabric) + 1;

  NodeId from = fabric.host_node(kSrc);
  if (c.start == Start::kSourceLeaf) from = fabric.leaf_switch_of_host(kSrc);
  if (c.start == Start::kDestLeaf) from = fabric.leaf_switch_of_host(kDst);

  std::vector<RouteHop> hops;
  const RouteStatus status = walk_lft(
      fabric, tables, from, kDst,
      [&](const RouteHop& hop) -> std::optional<RouteStatus> {
        hops.push_back(hop);
        if (c.stop_at == hops.size()) return RouteStatus::kDeadLink;
        return kKeepWalking;
      });

  EXPECT_EQ(status, c.expected) << route_status_name(status);
  EXPECT_EQ(hops.size(),
            c.expected == RouteStatus::kLoop ? loop_links : c.links);
  NodeId at = from;
  for (const RouteHop& hop : hops) {
    EXPECT_EQ(hop.from, at);
    EXPECT_EQ(fabric.port(hop.out).node, hop.from);
    EXPECT_EQ(hop.to, fabric.port(fabric.port(hop.out).peer).node);
    at = hop.to;
  }
  if (status == RouteStatus::kOk && !hops.empty()) {
    EXPECT_EQ(at, fabric.host_node(kDst));
  }
  if (c.start == Start::kHost && status == RouteStatus::kOk) {
    const std::vector<topo::PortId> traced =
        trace_route(fabric, tables, kSrc, kDst);
    ASSERT_EQ(traced.size(), hops.size());
    for (std::size_t i = 0; i < hops.size(); ++i)
      EXPECT_EQ(traced[i], hops[i].out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, WalkLft,
    ::testing::Values(
        // host -> leaf -> spine -> leaf -> host
        WalkCase{"host_delivered", pristine, Start::kHost, std::nullopt,
                 RouteStatus::kOk, 4},
        WalkCase{"switch_delivered", pristine, Start::kSourceLeaf,
                 std::nullopt, RouteStatus::kOk, 3},
        WalkCase{"host_unrouted", unprogram_dst_leaf, Start::kHost,
                 std::nullopt, RouteStatus::kUnrouted, 3},
        WalkCase{"switch_unrouted", unprogram_dst_leaf, Start::kSourceLeaf,
                 std::nullopt, RouteStatus::kUnrouted, 2},
        // A switch start with no entry never leaves the switch.
        WalkCase{"switch_unrouted_at_start", unprogram_dst_leaf,
                 Start::kDestLeaf, std::nullopt, RouteStatus::kUnrouted, 0},
        WalkCase{"host_loop", spine_bounces, Start::kHost, std::nullopt,
                 RouteStatus::kLoop, 0},
        WalkCase{"switch_loop", spine_bounces, Start::kSourceLeaf,
                 std::nullopt, RouteStatus::kLoop, 0},
        WalkCase{"host_foreign_host", deliver_to_neighbour, Start::kHost,
                 std::nullopt, RouteStatus::kForeignHost, 4},
        WalkCase{"switch_foreign_host", deliver_to_neighbour,
                 Start::kSourceLeaf, std::nullopt, RouteStatus::kForeignHost,
                 3},
        // A status returned by the callback stops the walk and is its
        // outcome (how walk_route adds its fault and up*/down* checks).
        WalkCase{"host_callback_stops", pristine, Start::kHost, 2,
                 RouteStatus::kDeadLink, 2},
        WalkCase{"switch_callback_stops", pristine, Start::kSourceLeaf, 1,
                 RouteStatus::kDeadLink, 1}),
    [](const ::testing::TestParamInfo<WalkCase>& param) {
      return std::string(param.param.name);
    });

TEST(WalkLftSelf, HostWalkingToItselfIsDeliveredWithoutLinks) {
  const Fabric fabric(topo::fig4b_pgft16());
  const ForwardingTables tables = DModKRouter{}.compute(fabric);
  std::size_t links = 0;
  EXPECT_EQ(walk_lft(fabric, tables, fabric.host_node(3), 3,
                     [&](const RouteHop&) {
                       ++links;
                       return kKeepWalking;
                     }),
            RouteStatus::kOk);
  EXPECT_EQ(links, 0u);
}

TEST(WalkLftErrors, RequireDeliveredKeepsTraceRouteExceptionTypes) {
  EXPECT_NO_THROW(require_delivered(RouteStatus::kOk));
  EXPECT_THROW(require_delivered(RouteStatus::kLoop), util::InvariantError);
  EXPECT_THROW(require_delivered(RouteStatus::kForeignHost),
               util::InvariantError);
  EXPECT_THROW(require_delivered(RouteStatus::kUnrouted),
               util::PreconditionError);

  const Fabric fabric(topo::fig4b_pgft16());
  ForwardingTables tables = DModKRouter{}.compute(fabric);
  unprogram_dst_leaf(fabric, tables);
  EXPECT_THROW((void)trace_route(fabric, tables, kSrc, kDst),
               util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::route
