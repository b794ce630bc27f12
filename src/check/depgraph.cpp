#include "check/depgraph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "routing/adaptive.hpp"
#include "routing/trace.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::NodeId;
using topo::PortId;

namespace {

/// True when destination `d` participates under the lane restriction.
bool lane_match(const DependencyOptions& options, std::uint64_t d) {
  return options.lane_of_dest.empty() ||
         options.lane_of_dest[d] == options.lane;
}

/// Dependencies of one source switch: for every routed destination, the
/// in-channel that reaches this switch is the switch's own out-channel of
/// the previous hop — equivalently, every (out-channel here, out-channel at
/// the next switch) pair. Each pair is marked in an (out-port at u) x
/// (out-port at the next switch) matrix and emitted row by row; channels
/// are numbered in PortId order and a node's ports are contiguous and
/// ascending by index, so the result is ascending and distinct.
std::vector<std::uint64_t> switch_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, NodeId u, const DependencyOptions& options) {
  const topo::Node& node = fabric.node(u);
  const std::uint32_t radix = node.num_down_ports + node.num_up_ports;
  // The switch behind each out-port of u whose channel is in the universe
  // (kInvalidNode when the port terminates at a host or is excluded).
  std::vector<NodeId> next(radix, topo::kInvalidNode);
  std::uint32_t stride = 0;
  for (std::uint32_t o1 = 0; o1 < radix; ++o1) {
    const PortId e1 = fabric.port_id(u, o1);
    const NodeId v = fabric.port(fabric.port(e1).peer).node;
    const topo::Node& vn = fabric.node(v);
    if (ci.dense[e1] == kNoChannel || vn.kind != topo::NodeKind::kSwitch)
      continue;
    next[o1] = v;
    stride = std::max(stride, vn.num_down_ports + vn.num_up_ports);
  }
  std::vector<std::uint8_t> seen(std::size_t{radix} * stride, 0);
  const std::uint64_t n = fabric.num_hosts();
  for (std::uint64_t d = 0; d < n; ++d) {
    if (!lane_match(options, d)) continue;
    const std::uint32_t o1 = tables.entry(u, d);
    if (o1 == route::kUnroutedPort || next[o1] == topo::kInvalidNode)
      continue;
    const std::uint32_t o2 = tables.entry(next[o1], d);
    if (o2 != route::kUnroutedPort) seen[std::size_t{o1} * stride + o2] = 1;
  }
  std::vector<std::uint64_t> deps;
  for (std::uint32_t o1 = 0; o1 < radix; ++o1) {
    if (next[o1] == topo::kInvalidNode) continue;
    const std::uint64_t c1 = ci.dense[fabric.port_id(u, o1)];
    for (std::uint32_t o2 = 0; o2 < stride; ++o2) {
      if (seen[std::size_t{o1} * stride + o2] == 0) continue;
      const std::uint32_t c2 = ci.dense[fabric.port_id(next[o1], o2)];
      if (c2 != kNoChannel) deps.push_back((c1 << 32) | c2);
    }
  }
  return deps;
}

/// Host-injection dependencies of one host: its up-going channel(s) depend
/// on whatever out-channel the leaf switch forwards each destination to.
std::vector<std::uint64_t> host_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, std::uint64_t h, const DependencyOptions& options) {
  std::vector<std::uint64_t> deps;
  const std::uint64_t n = fabric.num_hosts();
  const NodeId host = fabric.host_node(h);
  for (std::uint64_t d = 0; d < n; ++d) {
    if (d == h || !lane_match(options, d)) continue;
    const std::uint32_t up = route::host_up_port(fabric, h, d);
    const PortId e1 =
        fabric.port_id(host, fabric.node(host).num_down_ports + up);
    const std::uint32_t c1 = ci.dense[e1];
    if (c1 == kNoChannel) continue;
    const NodeId v = fabric.port(fabric.port(e1).peer).node;
    if (fabric.node(v).kind != topo::NodeKind::kSwitch) continue;
    if (!tables.has_entry(v, d)) continue;
    const PortId e2 = fabric.port_id(v, tables.out_port(v, d));
    const std::uint32_t c2 = ci.dense[e2];
    if (c2 == kNoChannel) continue;
    deps.push_back((static_cast<std::uint64_t>(c1) << 32) | c2);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

/// Relation analogue of switch_dependencies: every candidate out-channel of
/// (u, d) depends on every candidate out-channel of the peer switch it
/// reaches, for the same destination.
std::vector<std::uint64_t> switch_relation_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, NodeId u) {
  std::vector<std::uint64_t> deps;
  const std::uint64_t n = fabric.num_hosts();
  for (std::uint64_t d = 0; d < n; ++d) {
    const route::PortRange outs_u =
        route::adaptive_candidates(fabric, tables, u, d);
    for (std::uint32_t o1 = outs_u.first; o1 < outs_u.first + outs_u.count;
         ++o1) {
      const PortId e1 = fabric.port_id(u, o1);
      const std::uint32_t c1 = ci.dense[e1];
      if (c1 == kNoChannel) continue;  // terminates at a host
      const NodeId v = fabric.port(fabric.port(e1).peer).node;
      if (fabric.node(v).kind != topo::NodeKind::kSwitch) continue;
      const route::PortRange outs_v =
          route::adaptive_candidates(fabric, tables, v, d);
      for (std::uint32_t o2 = outs_v.first; o2 < outs_v.first + outs_v.count;
           ++o2) {
        const PortId e2 = fabric.port_id(v, o2);
        const std::uint32_t c2 = ci.dense[e2];
        if (c2 == kNoChannel) continue;
        deps.push_back((static_cast<std::uint64_t>(c1) << 32) | c2);
      }
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

}  // namespace

ChannelIndex switch_channels(const Fabric& fabric) {
  ChannelIndex ci;
  ci.dense.assign(fabric.num_ports(), kNoChannel);
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    const topo::Port& port = fabric.port(p);
    if (fabric.node(port.node).kind != topo::NodeKind::kSwitch) continue;
    const NodeId peer_node = fabric.port(port.peer).node;
    if (fabric.node(peer_node).kind != topo::NodeKind::kSwitch) continue;
    ci.dense[p] = static_cast<std::uint32_t>(ci.channels.size());
    ci.channels.push_back(p);
  }
  return ci;
}

ChannelIndex buffered_channels(const Fabric& fabric,
                               std::span<const std::uint8_t> finite) {
  util::expects(finite.size() == fabric.num_ports(),
                "finite-buffer mask must cover every port");
  ChannelIndex ci;
  ci.dense.assign(fabric.num_ports(), kNoChannel);
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    if (finite[p] == 0) continue;
    ci.dense[p] = static_cast<std::uint32_t>(ci.channels.size());
    ci.channels.push_back(p);
  }
  return ci;
}

std::vector<std::uint64_t> build_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const DependencyOptions& options) {
  const std::span<const NodeId> switches = fabric.switch_ids();
  auto per_switch = par::parallel_map(
      switches.size(),
      [&](std::size_t idx) {
        return switch_dependencies(fabric, tables, ci, switches[idx], options);
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = options.label});

  // Hosts precede switches in NodeId (so PortId and channel) order, and
  // every per-node list is ascending with its own source channels: the
  // concatenation in node order is already sorted and distinct.
  std::vector<std::uint64_t> all;
  if (options.host_injections) {
    auto per_host = par::parallel_map(
        fabric.num_hosts(),
        [&](std::size_t h) {
          return host_dependencies(fabric, tables, ci, h, options);
        },
        par::ForOptions{.threads = 0, .grain = 16, .label = options.label});
    for (const auto& deps : per_host)
      all.insert(all.end(), deps.begin(), deps.end());
  }
  for (const auto& deps : per_switch)
    all.insert(all.end(), deps.begin(), deps.end());
  util::ensures(std::adjacent_find(all.begin(), all.end(),
                                   std::greater_equal<>()) == all.end(),
                "node-ordered dependencies are strictly ascending");
  return all;
}

std::vector<std::uint64_t> build_relation_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const char* label) {
  const std::span<const NodeId> switches = fabric.switch_ids();
  auto per_switch = par::parallel_map(
      switches.size(),
      [&](std::size_t idx) {
        return switch_relation_dependencies(fabric, tables, ci,
                                            switches[idx]);
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = label});

  std::vector<std::uint64_t> all;
  for (const auto& deps : per_switch)
    all.insert(all.end(), deps.begin(), deps.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<std::uint64_t> destination_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, std::uint64_t dest) {
  std::vector<std::uint64_t> deps;
  for (const NodeId u : fabric.switch_ids()) {
    if (!tables.has_entry(u, dest)) continue;
    const PortId e1 = fabric.port_id(u, tables.out_port(u, dest));
    const std::uint32_t c1 = ci.dense[e1];
    if (c1 == kNoChannel) continue;
    const NodeId v = fabric.port(fabric.port(e1).peer).node;
    if (fabric.node(v).kind != topo::NodeKind::kSwitch) continue;
    if (!tables.has_entry(v, dest)) continue;
    const PortId e2 = fabric.port_id(v, tables.out_port(v, dest));
    const std::uint32_t c2 = ci.dense[e2];
    if (c2 == kNoChannel) continue;
    deps.push_back((static_cast<std::uint64_t>(c1) << 32) | c2);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

ChannelGraph build_graph(std::size_t num_channels,
                         const std::vector<std::uint64_t>& deps) {
  ChannelGraph graph;
  graph.offsets.assign(num_channels + 1, 0);
  graph.targets.reserve(deps.size());
  for (const std::uint64_t packed : deps)
    ++graph.offsets[static_cast<std::size_t>(packed >> 32) + 1];
  for (std::size_t i = 1; i < graph.offsets.size(); ++i)
    graph.offsets[i] += graph.offsets[i - 1];
  for (const std::uint64_t packed : deps)
    graph.targets.push_back(static_cast<std::uint32_t>(packed & 0xffffffffu));
  return graph;
}

SccSummary find_cyclic_sccs(const ChannelGraph& graph) {
  const std::size_t num_nodes = graph.num_nodes();
  SccSummary result;
  std::vector<std::uint32_t> index(num_nodes, kNoChannel);
  std::vector<std::uint32_t> lowlink(num_nodes, 0);
  std::vector<std::uint8_t> on_stack(num_nodes, 0);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_index = 0;

  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;  ///< next offset into graph.targets to explore
  };
  std::vector<Frame> frames;

  for (std::uint32_t root = 0; root < num_nodes; ++root) {
    if (index[root] != kNoChannel) continue;
    frames.push_back({root, graph.offsets[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::uint32_t v = frame.v;
      if (frame.edge < graph.offsets[v + 1]) {
        const std::uint32_t w = graph.targets[frame.edge++];
        if (index[w] == kNoChannel) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = 1;
          frames.push_back({w, graph.offsets[w]});
        } else if (on_stack[w] != 0) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      // v is fully explored: close its SCC if it is a root.
      if (lowlink[v] == index[v]) {
        std::vector<std::uint32_t> members;
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          members.push_back(w);
          if (w == v) break;
        }
        if (members.size() > 1) {  // self-loops cannot occur in a CDG
          ++result.cyclic_sccs;
          if (result.first_cycle_members.empty())
            result.first_cycle_members = std::move(members);
        }
      }
      frames.pop_back();
      if (!frames.empty())
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
    }
  }
  return result;
}

std::vector<std::uint32_t> extract_cycle(const ChannelGraph& graph,
                                         const std::vector<std::uint32_t>& scc) {
  std::vector<std::uint8_t> member(graph.num_nodes(), 0);
  std::uint32_t start = scc.front();
  for (const std::uint32_t v : scc) {
    member[v] = 1;
    start = std::min(start, v);
  }
  std::vector<std::uint32_t> path;
  std::vector<std::uint32_t> pos(graph.num_nodes(), kNoChannel);
  std::uint32_t at = start;
  while (pos[at] == kNoChannel) {
    pos[at] = static_cast<std::uint32_t>(path.size());
    path.push_back(at);
    std::uint32_t next = kNoChannel;
    for (std::uint32_t e = graph.offsets[at]; e < graph.offsets[at + 1]; ++e) {
      if (member[graph.targets[e]] != 0) {
        next = graph.targets[e];  // targets ascending: first hit is smallest
        break;
      }
    }
    util::expects(next != kNoChannel,
                  "every member of a cyclic SCC has an in-SCC successor");
    at = next;
  }
  return {path.begin() + pos[at], path.end()};
}

bool dependencies_acyclic(std::size_t num_channels,
                          const std::vector<std::uint64_t>& deps) {
  const ChannelGraph graph = build_graph(num_channels, deps);
  enum : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<std::uint8_t> color(num_channels, kWhite);
  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;
  };
  std::vector<Frame> frames;
  for (std::uint32_t root = 0; root < num_channels; ++root) {
    if (color[root] != kWhite) continue;
    color[root] = kGrey;
    frames.push_back({root, graph.offsets[root]});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.edge < graph.offsets[frame.v + 1]) {
        const std::uint32_t w = graph.targets[frame.edge++];
        if (color[w] == kGrey) return false;  // back edge closes a cycle
        if (color[w] == kWhite) {
          color[w] = kGrey;
          frames.push_back({w, graph.offsets[w]});
        }
        continue;
      }
      color[frame.v] = kBlack;
      frames.pop_back();
    }
  }
  return true;
}

bool is_up_channel(const Fabric& fabric, PortId port) {
  const topo::Port& pt = fabric.port(port);
  return pt.index >= fabric.node(pt.node).num_down_ports;
}

std::string channel_to_string(const Fabric& fabric, PortId port) {
  const topo::Port& from = fabric.port(port);
  const topo::Port& to = fabric.port(from.peer);
  std::ostringstream oss;
  oss << fabric.node_name(from.node) << "[port " << from.index << "] -> "
      << fabric.node_name(to.node) << "[port " << to.index << ']';
  return oss.str();
}

}  // namespace ftcf::check
