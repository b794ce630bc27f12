// BFS reachability oracle over a degraded fabric, restricted to valid
// up*/down* paths (the only shape deadlock-free fat-tree routing may use):
// a destination is reachable from `src` iff some alive switch reached by
// climbing alive up-links can descend to it over alive down-links.
//
// This is routing-table-free ground truth: the churn campaign and the
// degraded-routing tests compare what the D-Mod-K chooser programmed against
// what the graph actually allows.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/degraded.hpp"

namespace ftcf::fault {

/// Per-host reachability (indexed by host linear index) from `src` over the
/// degraded graph via up*/down* paths. out[src] equals health.host_up(src),
/// and every entry is 0 when src cannot inject at all (dead host or no
/// alive cable to an alive leaf).
[[nodiscard]] std::vector<std::uint8_t> updown_reachable_hosts(
    const topo::Fabric& fabric, const LinkHealth& health, std::uint64_t src);

}  // namespace ftcf::fault
