#include "check/depgraph.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "routing/adaptive.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::NodeId;
using topo::PortId;

namespace {

/// True when `port` sources an up-going link of its node.
bool is_up_channel(const Fabric& fabric, PortId port) {
  const topo::Port& pt = fabric.port(port);
  return pt.index >= fabric.node(pt.node).num_down_ports;
}

/// Dependencies of one source switch u under the candidate function
/// `outs(switch, dest) -> route::PortRange`: every candidate out-channel of
/// (u, d) depends on every candidate out-channel of the switch it reaches,
/// for the same destination. Each pair is marked in an (out-port at u) x
/// (out-port at the next switch) matrix and emitted row by row; channels are
/// numbered in PortId order and a node's ports are contiguous and ascending
/// by index, so the result is ascending and distinct.
template <typename Outs>
std::vector<std::uint64_t> switch_dependencies(const Fabric& fabric,
                                               const ChannelIndex& ci,
                                               NodeId u, const Outs& outs) {
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
    const route::PortRange outs_u = outs(u, d);
    for (std::uint32_t o1 = outs_u.first; o1 < outs_u.first + outs_u.count;
         ++o1) {
      if (next[o1] == topo::kInvalidNode) continue;
      const route::PortRange outs_v = outs(next[o1], d);
      std::uint8_t* row = seen.data() + std::size_t{o1} * stride;
      std::fill_n(row + outs_v.first, outs_v.count, std::uint8_t{1});
    }
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

/// Every switch's dependencies under `outs`, built in parallel and
/// concatenated in switch order. A ChannelIndex numbers only switch-sourced
/// channels, in PortId order, and every per-switch list is ascending with
/// its own source channels: the concatenation is already sorted and
/// distinct.
template <typename Outs>
std::vector<std::uint64_t> build_switch_dependencies(const Fabric& fabric,
                                                     const ChannelIndex& ci,
                                                     const char* label,
                                                     const Outs& outs) {
  const std::span<const NodeId> switches = fabric.switch_ids();
  auto per_switch = par::parallel_map(
      switches.size(),
      [&](std::size_t idx) {
        return switch_dependencies(fabric, ci, switches[idx], outs);
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = label});
  std::vector<std::uint64_t> all;
  for (const auto& deps : per_switch)
    all.insert(all.end(), deps.begin(), deps.end());
  util::ensures(std::adjacent_find(all.begin(), all.end(),
                                   std::greater_equal<>()) == all.end(),
                "switch-ordered dependencies are strictly ascending");
  return all;
}

/// The walk inside cyclic component `comp` from its smallest member,
/// following the smallest in-component successor until a node repeats; the
/// slice from that node's first visit is a concrete cycle.
std::vector<std::uint32_t> extract_cycle(const ChannelGraph& graph,
                                         const SccPartition& sccs,
                                         std::uint32_t comp) {
  const auto first = std::find(sccs.comp.begin(), sccs.comp.end(), comp);
  std::vector<std::uint32_t> path;
  std::vector<std::uint32_t> pos(graph.num_nodes(), kNoChannel);
  auto at = static_cast<std::uint32_t>(first - sccs.comp.begin());
  while (pos[at] == kNoChannel) {
    pos[at] = static_cast<std::uint32_t>(path.size());
    path.push_back(at);
    std::uint32_t next = kNoChannel;
    for (std::uint32_t e = graph.offsets[at]; e < graph.offsets[at + 1]; ++e) {
      if (sccs.comp[graph.targets[e]] == comp) {
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

std::vector<std::uint64_t> build_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const DependencyOptions& options) {
  const auto rows = tables.rows();
  return build_switch_dependencies(
      fabric, ci, options.label,
      [&](NodeId sw, std::uint64_t d) -> route::PortRange {
        const std::uint32_t out = rows[sw][d];
        if (out == route::kUnroutedPort ||
            (!options.lane_of_dest.empty() &&
             options.lane_of_dest[d] != options.lane))
          return {};
        return {out, 1};
      });
}

std::vector<std::uint64_t> build_relation_dependencies(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const char* label) {
  const auto rows = tables.rows();
  return build_switch_dependencies(
      fabric, ci, label, [&](NodeId sw, std::uint64_t d) {
        return route::adaptive_candidates(fabric, sw, d, rows[sw][d]);
      });
}

std::vector<std::uint64_t> destination_dependencies(
    const Fabric& fabric,
    const std::vector<std::span<const std::uint32_t>>& rows,
    const ChannelIndex& ci, std::uint64_t dest) {
  util::expects(dest < fabric.num_hosts(), "destination out of range");
  std::vector<std::uint64_t> deps;
  for (const NodeId u : fabric.switch_ids()) {
    const std::uint32_t o1 = rows[u][dest];
    if (o1 == route::kUnroutedPort) continue;
    const PortId e1 = fabric.node(u).first_port + o1;
    const std::uint32_t c1 = ci.dense[e1];
    if (c1 == kNoChannel) continue;
    const NodeId v = fabric.port(fabric.port(e1).peer).node;
    if (fabric.node(v).kind != topo::NodeKind::kSwitch) continue;
    const std::uint32_t o2 = rows[v][dest];
    if (o2 == route::kUnroutedPort) continue;
    const PortId e2 = fabric.node(v).first_port + o2;
    const std::uint32_t c2 = ci.dense[e2];
    if (c2 == kNoChannel) continue;
    deps.push_back((static_cast<std::uint64_t>(c1) << 32) | c2);
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

CdgAnalysis analyze_dependencies(const Fabric& fabric, const ChannelIndex& ci,
                                 const std::vector<std::uint64_t>& deps) {
  CdgAnalysis analysis;
  analysis.num_channels = ci.size();
  analysis.num_dependencies = deps.size();
  for (const std::uint64_t packed : deps) {
    const PortId from = ci.channels[packed >> 32];
    const PortId to = ci.channels[packed & 0xffffffffu];
    if (!is_up_channel(fabric, from) && is_up_channel(fabric, to))
      ++analysis.down_up_turns;
  }

  const ChannelGraph graph = build_graph(ci.size(), deps);
  const SccPartition sccs = scc_partition(graph);
  std::uint32_t first_cyclic = kNoChannel;
  for (std::uint32_t comp = 0; comp < sccs.comp_size.size(); ++comp) {
    if (sccs.comp_size[comp] < 2) continue;
    if (analysis.cyclic_scc_count++ == 0) first_cyclic = comp;
  }
  analysis.acyclic = analysis.cyclic_scc_count == 0;
  if (!analysis.acyclic) {
    for (const std::uint32_t dense : extract_cycle(graph, sccs, first_cyclic))
      analysis.cycle.push_back(ci.channels[dense]);
  }
  return analysis;
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

SccPartition scc_partition(const ChannelGraph& graph) {
  const std::size_t num_nodes = graph.num_nodes();
  SccPartition result;
  result.comp.assign(num_nodes, kNoChannel);
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
        const auto id = static_cast<std::uint32_t>(result.comp_size.size());
        std::uint32_t members = 0;
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          result.comp[w] = id;
          ++members;
          if (w == v) break;
        }
        result.comp_size.push_back(members);
      }
      frames.pop_back();
      if (!frames.empty())
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
    }
  }
  return result;
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

std::string channel_to_string(const Fabric& fabric, PortId port) {
  const topo::Port& from = fabric.port(port);
  const topo::Port& to = fabric.port(from.peer);
  std::ostringstream oss;
  oss << fabric.node_name(from.node) << "[port " << from.index << "] -> "
      << fabric.node_name(to.node) << "[port " << to.index << ']';
  return oss.str();
}

}  // namespace ftcf::check
