#include "analysis/link_load.hpp"

#include <algorithm>
#include <sstream>

namespace ftcf::analysis {

std::vector<LevelLoad> per_level_loads(
    const topo::Fabric& fabric, const std::vector<std::uint32_t>& loads) {
  // Bucket: (level boundary, direction). Boundary l covers links between
  // level l and l+1; a link is upward when it leaves an up-going port.
  struct Bucket {
    std::uint32_t max = 0;
    std::uint64_t sum = 0;
    std::uint64_t used = 0;
    std::uint64_t hot = 0;
  };
  const std::uint32_t h = fabric.height();
  std::vector<Bucket> up(h), down(h);

  for (topo::PortId pid = 0; pid < loads.size(); ++pid) {
    const std::uint32_t load = loads[pid];
    if (load == 0) continue;
    const topo::Port& pt = fabric.port(pid);
    const topo::Node& n = fabric.node(pt.node);
    const bool upward =
        n.kind == topo::NodeKind::kHost || pt.index >= n.num_down_ports;
    const std::uint32_t boundary = upward ? n.level : n.level - 1;
    Bucket& b = (upward ? up : down)[boundary];
    b.max = std::max(b.max, load);
    b.sum += load;
    ++b.used;
    if (load > 1) ++b.hot;
  }

  std::vector<LevelLoad> out;
  for (std::uint32_t l = 0; l < h; ++l) {
    for (const bool upward : {true, false}) {
      const Bucket& b = upward ? up[l] : down[l];
      if (b.used == 0) continue;
      out.push_back(LevelLoad{
          .level = l,
          .upward = upward,
          .max_load = b.max,
          .avg_load = static_cast<double>(b.sum) / static_cast<double>(b.used),
          .used_links = b.used,
          .hot_links = b.hot,
      });
    }
  }
  return out;
}

std::string render_leaf_up_loads(const topo::Fabric& fabric,
                                 const std::vector<std::uint32_t>& loads) {
  std::ostringstream oss;
  const std::uint64_t leaves = fabric.switches_at_level(1);
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    const topo::NodeId sw = fabric.switch_node(1, leaf);
    const topo::Node& n = fabric.node(sw);
    oss << fabric.node_name(sw) << " up:";
    for (std::uint32_t q = 0; q < n.num_up_ports; ++q) {
      const topo::PortId pid = fabric.port_id(sw, n.num_down_ports + q);
      oss << ' ' << loads[pid];
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace ftcf::analysis
