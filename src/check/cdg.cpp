#include "check/cdg.hpp"

#include <sstream>

#include "check/depgraph.hpp"
#include "obs/profile.hpp"
#include "routing/adaptive.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::PortId;

CdgAnalysis analyze_cdg(const Fabric& fabric,
                        const route::ForwardingTables& tables) {
  FTCF_PROF_SCOPE("check.cdg");
  CdgAnalysis analysis;
  const ChannelIndex ci = switch_channels(fabric);
  analysis.num_channels = ci.size();
  if (ci.empty()) return analysis;  // single-switch or host-only

  const std::vector<std::uint64_t> deps = build_dependencies(
      fabric, tables, ci, DependencyOptions{.label = "check.cdg"});
  analysis.num_dependencies = deps.size();
  for (const std::uint64_t packed : deps) {
    const PortId from = ci.channels[packed >> 32];
    const PortId to = ci.channels[packed & 0xffffffffu];
    if (!is_up_channel(fabric, from) && is_up_channel(fabric, to))
      ++analysis.down_up_turns;
  }

  const ChannelGraph graph = build_graph(ci.size(), deps);
  const SccSummary sccs = find_cyclic_sccs(graph);
  analysis.cyclic_scc_count = sccs.cyclic_sccs;
  analysis.acyclic = sccs.cyclic_sccs == 0;
  if (!analysis.acyclic) {
    for (const std::uint32_t dense :
         extract_cycle(graph, sccs.first_cycle_members))
      analysis.cycle.push_back(ci.channels[dense]);
  }
  return analysis;
}

AdaptiveCdgAnalysis analyze_adaptive_cdg(const Fabric& fabric,
                                         const route::ForwardingTables& tables) {
  FTCF_PROF_SCOPE("check.cdg.adaptive");
  AdaptiveCdgAnalysis analysis;
  const route::AdaptiveRelationStats stats =
      route::adaptive_relation_stats(fabric, tables);
  analysis.relation_pairs = stats.pairs;
  analysis.relation_choices = stats.candidates;
  analysis.max_fanout = stats.max_fanout;

  const ChannelIndex ci = switch_channels(fabric);
  analysis.cdg.num_channels = ci.size();
  if (ci.empty()) return analysis;  // single-switch or host-only

  const std::vector<std::uint64_t> deps =
      build_relation_dependencies(fabric, tables, ci, "check.cdg.adaptive");
  analysis.cdg.num_dependencies = deps.size();
  for (const std::uint64_t packed : deps) {
    const PortId from = ci.channels[packed >> 32];
    const PortId to = ci.channels[packed & 0xffffffffu];
    if (!is_up_channel(fabric, from) && is_up_channel(fabric, to))
      ++analysis.cdg.down_up_turns;
  }

  const ChannelGraph graph = build_graph(ci.size(), deps);
  const SccSummary sccs = find_cyclic_sccs(graph);
  analysis.cdg.cyclic_scc_count = sccs.cyclic_sccs;
  analysis.cdg.acyclic = sccs.cyclic_sccs == 0;
  if (!analysis.cdg.acyclic) {
    for (const std::uint32_t dense :
         extract_cycle(graph, sccs.first_cycle_members))
      analysis.cdg.cycle.push_back(ci.channels[dense]);
  }
  return analysis;
}

std::string cycle_to_string(const Fabric& fabric,
                            const std::vector<PortId>& cycle) {
  std::ostringstream oss;
  for (std::size_t i = 0; i <= cycle.size(); ++i) {
    if (cycle.empty()) break;
    const topo::Port& port = fabric.port(cycle[i % cycle.size()]);
    if (i != 0) oss << " -> ";
    oss << fabric.node_name(port.node) << "[port " << port.index << ']';
  }
  return oss.str();
}

}  // namespace ftcf::check
