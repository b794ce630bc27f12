// Per-virtual-lane channel-dependency analysis (LASH-style escape lanes).
//
// InfiniBand breaks routing deadlocks that the single-lane CDG exposes by
// spreading traffic over virtual lanes: each lane has its own buffers, so
// only dependencies *within* one lane can deadlock. We model the standard
// destination-based assignment (every packet travels on the lane of its
// destination host, as in LASH): the dependency set partitions by
// destination, and routing is deadlock-free iff every lane's restricted
// dependency graph is acyclic — the Dally–Seitz criterion applied per lane.
//
// propose_vl_assignment runs the greedy layered search: destinations are
// placed in ascending order onto the lowest lane whose graph stays acyclic,
// opening a new lane only when every existing one would close a cycle. The
// loop is serial and index-ordered, so the proposal is deterministic at any
// thread count (only the per-destination dependency precomputation fans out
// over ftcf::par).
#pragma once

#include <string>
#include <vector>

#include "check/cdg.hpp"
#include "routing/validate.hpp"

namespace ftcf::check {

inline constexpr std::uint32_t kNoLane = static_cast<std::uint32_t>(-1);

/// A destination-based virtual-lane assignment over the fabric's hosts.
struct VlAssignment {
  std::uint32_t num_lanes = 0;
  /// Host index -> lane; kNoLane for destinations the search could not place
  /// (also listed in `unassigned`).
  std::vector<std::uint32_t> lane_of_dest;
  /// Destinations not placeable within the lane budget — either the budget
  /// was exhausted or the destination's own dependency set is cyclic (a
  /// routing loop no lane count can fix).
  std::vector<std::uint64_t> unassigned;

  [[nodiscard]] bool complete() const noexcept { return unassigned.empty(); }
};

/// Per-lane CDG verdicts under an assignment. Destinations left at kNoLane
/// contribute to no lane's graph.
struct VlCdgAnalysis {
  std::vector<CdgAnalysis> lanes;

  [[nodiscard]] bool all_acyclic() const noexcept {
    for (const CdgAnalysis& lane : lanes)
      if (!lane.acyclic) return false;
    return true;
  }
};

/// Analyze one restricted dependency graph per lane of `assignment`.
[[nodiscard]] VlCdgAnalysis analyze_cdg_per_vl(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const VlAssignment& assignment);

/// Greedy layered search for a minimal destination->lane assignment whose
/// per-lane graphs are all acyclic, using at most `max_lanes` lanes.
/// Acyclic tables come back as one lane; tables with cycles typically split
/// into two.
[[nodiscard]] VlAssignment propose_vl_assignment(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    std::uint32_t max_lanes);

/// As above, but additionally hands back the per-destination dependency sets
/// the search computed (indexed by destination, packed like
/// destination_dependencies) so the optimality prover can reuse them instead
/// of rebuilding.
[[nodiscard]] VlAssignment propose_vl_assignment(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    std::uint32_t max_lanes,
    std::vector<std::vector<std::uint64_t>>* per_dest_out);

/// Render an assignment for reports, e.g.
/// "2 lane(s): lane 0 <- dests 0-2,5 (4); lane 1 <- dests 3-4 (2)".
[[nodiscard]] std::string vl_assignment_to_string(
    const VlAssignment& assignment);

}  // namespace ftcf::check
