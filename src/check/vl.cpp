#include "check/vl.hpp"

#include <algorithm>
#include <sstream>

#include "check/depgraph.hpp"
#include "obs/profile.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {

using topo::Fabric;

VlCdgAnalysis analyze_cdg_per_vl(const Fabric& fabric,
                                 const route::ForwardingTables& tables,
                                 const VlAssignment& assignment) {
  FTCF_PROF_SCOPE("check.vl");
  util::expects(assignment.lane_of_dest.size() == fabric.num_hosts(),
                "VL assignment must cover every host");
  const ChannelIndex ci = switch_channels(fabric);
  VlCdgAnalysis analysis;
  analysis.lanes.reserve(assignment.num_lanes);
  for (std::uint32_t lane = 0; lane < assignment.num_lanes; ++lane) {
    analysis.lanes.push_back(analyze_dependencies(
        fabric, ci,
        build_dependencies(
            fabric, tables, ci,
            DependencyOptions{.lane_of_dest = assignment.lane_of_dest,
                              .lane = lane,
                              .label = "check.vl"})));
  }
  return analysis;
}

VlAssignment propose_vl_assignment(const Fabric& fabric,
                                   const route::ForwardingTables& tables,
                                   std::uint32_t max_lanes) {
  return propose_vl_assignment(fabric, tables, max_lanes, nullptr);
}

VlAssignment propose_vl_assignment(
    const Fabric& fabric, const route::ForwardingTables& tables,
    std::uint32_t max_lanes,
    std::vector<std::vector<std::uint64_t>>* per_dest_out) {
  FTCF_PROF_SCOPE("check.vl.propose");
  util::expects(max_lanes >= 1, "VL search needs at least one lane");
  const ChannelIndex ci = switch_channels(fabric);
  const std::uint64_t n = fabric.num_hosts();

  VlAssignment out;
  out.lane_of_dest.assign(n, kNoLane);

  // Per-destination dependency sets in parallel; the greedy placement below
  // is serial and ascending in destination, so the proposal is identical at
  // any thread count.
  const auto rows = tables.rows();
  auto per_dest = par::parallel_map(
      n,
      [&](std::size_t d) {
        return destination_dependencies(fabric, rows, ci, d);
      },
      par::ForOptions{.threads = 0, .grain = 16, .label = "check.vl.propose"});

  std::vector<std::vector<std::uint64_t>> lane_deps;
  std::vector<std::uint64_t> merged;
  for (std::uint64_t d = 0; d < n; ++d) {
    const std::vector<std::uint64_t>& deps = per_dest[d];
    if (!dependencies_acyclic(ci.size(), deps)) {
      // The destination's own graph cycles: a routing loop, unfixable by
      // lane separation.
      out.unassigned.push_back(d);
      continue;
    }
    bool placed = false;
    for (std::uint32_t lane = 0; lane < lane_deps.size() && !placed; ++lane) {
      merged.clear();
      merged.reserve(lane_deps[lane].size() + deps.size());
      std::merge(lane_deps[lane].begin(), lane_deps[lane].end(), deps.begin(),
                 deps.end(), std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      if (dependencies_acyclic(ci.size(), merged)) {
        lane_deps[lane] = merged;
        out.lane_of_dest[d] = lane;
        placed = true;
      }
    }
    if (!placed) {
      if (lane_deps.size() < max_lanes) {
        out.lane_of_dest[d] = static_cast<std::uint32_t>(lane_deps.size());
        lane_deps.push_back(deps);
      } else {
        out.unassigned.push_back(d);
      }
    }
  }
  out.num_lanes = static_cast<std::uint32_t>(lane_deps.size());
  if (per_dest_out != nullptr) *per_dest_out = std::move(per_dest);
  return out;
}

namespace {

/// Compress an ascending destination list to "0-2,5,7-9".
std::string ranges_to_string(const std::vector<std::uint64_t>& dests) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < dests.size();) {
    std::size_t j = i;
    while (j + 1 < dests.size() && dests[j + 1] == dests[j] + 1) ++j;
    if (i != 0) oss << ',';
    oss << dests[i];
    if (j > i) oss << '-' << dests[j];
    i = j + 1;
  }
  return oss.str();
}

}  // namespace

std::string vl_assignment_to_string(const VlAssignment& assignment) {
  std::ostringstream oss;
  oss << assignment.num_lanes << " lane(s)";
  for (std::uint32_t lane = 0; lane < assignment.num_lanes; ++lane) {
    std::vector<std::uint64_t> dests;
    for (std::uint64_t d = 0; d < assignment.lane_of_dest.size(); ++d)
      if (assignment.lane_of_dest[d] == lane) dests.push_back(d);
    oss << (lane == 0 ? ": " : "; ") << "lane " << lane << " <- dests "
        << ranges_to_string(dests) << " (" << dests.size() << ')';
  }
  if (!assignment.unassigned.empty())
    oss << "; unassigned: " << ranges_to_string(assignment.unassigned);
  return oss.str();
}

}  // namespace ftcf::check
