#include "routing/adaptive.hpp"

#include <algorithm>

namespace ftcf::route {

using topo::Fabric;
using topo::NodeId;

PortRange adaptive_candidates(const Fabric& fabric, NodeId sw,
                              std::uint64_t dest, std::uint32_t entry) {
  if (fabric.is_ancestor_of_host(sw, dest)) {
    if (entry == kUnroutedPort) return {};
    return {entry, 1};
  }
  const topo::Node& node = fabric.node(sw);
  return {node.num_down_ports, node.num_up_ports};
}

AdaptiveRelationStats adaptive_relation_stats(const Fabric& fabric,
                                              const ForwardingTables& tables) {
  AdaptiveRelationStats stats;
  const std::uint64_t n = fabric.num_hosts();
  for (const NodeId sw : fabric.switch_ids()) {
    const std::span<const std::uint32_t> row = tables.row(sw);
    for (std::uint64_t d = 0; d < n; ++d) {
      const std::uint32_t fanout =
          adaptive_candidates(fabric, sw, d, row[d]).count;
      if (fanout == 0) continue;
      ++stats.pairs;
      stats.candidates += fanout;
      stats.max_fanout = std::max(stats.max_fanout, fanout);
    }
  }
  return stats;
}

}  // namespace ftcf::route
