#include "routing/adaptive.hpp"

#include <algorithm>

namespace ftcf::route {

using topo::Fabric;
using topo::NodeId;

PortRange adaptive_candidates(const Fabric& fabric,
                              const ForwardingTables& tables, NodeId sw,
                              std::uint64_t dest) {
  if (fabric.is_ancestor_of_host(sw, dest)) {
    if (!tables.has_entry(sw, dest)) return {};
    return {tables.out_port(sw, dest), 1};
  }
  const topo::Node& node = fabric.node(sw);
  return {node.num_down_ports, node.num_up_ports};
}

AdaptiveRelationStats adaptive_relation_stats(const Fabric& fabric,
                                              const ForwardingTables& tables) {
  AdaptiveRelationStats stats;
  const std::uint64_t n = fabric.num_hosts();
  for (const NodeId sw : fabric.switch_ids()) {
    for (std::uint64_t d = 0; d < n; ++d) {
      const std::uint32_t fanout =
          adaptive_candidates(fabric, tables, sw, d).count;
      if (fanout == 0) continue;
      ++stats.pairs;
      stats.candidates += fanout;
      stats.max_fanout = std::max(stats.max_fanout, fanout);
    }
  }
  return stats;
}

}  // namespace ftcf::route
