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
  const ChannelIndex ci = switch_channels(fabric);
  return analyze_dependencies(
      fabric, ci,
      build_dependencies(fabric, tables, ci,
                         DependencyOptions{.label = "check.cdg"}));
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
  analysis.cdg = analyze_dependencies(
      fabric, ci,
      build_relation_dependencies(fabric, tables, ci, "check.cdg.adaptive"));
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
