// Topology-aware grouped Recursive-Doubling (paper §VI).
//
// Naive recursive doubling XORs global rank bits, so a stage mixes hops of
// wildly different tree distances and congests up-links. The paper instead
// plays the doubling *per tree level*: stages are grouped, one group per
// level l = 1..h; group l exchanges data only between end-ports whose first
// common parent is at level l, all at the same hierarchical distance.
// With the per-level constants
//
//     L_l = floor(log2(m_l)),  M_l = prod_{j<=l} m_j,  E_l = M_{l-1} * 2^{L_l}
//
// group l consists of an optional pre stage folding the positions past the
// last power of two onto proxies, L_l bulk exchange stages
//
//     i <-> ((x_l XOR 2^s) - x_l) * M_{l-1} + i,   x_l = (i / M_{l-1}) mod m_l
//
// and an optional post stage returning results to the folded positions. Every
// stage has a single XOR-displacement, so Theorem 3 applies and the whole
// sequence is congestion-free under D-Mod-K with topology ordering.
//
// The generator also supports partially-populated trees: participants are
// grouped by occupied subtree, and the doubling runs over *occupied* child
// positions (the §VI remark that stage count follows the number of occupied
// leaf switches, not end-ports). This requires the occupancy to be uniform:
// at every level, all occupied subtrees must hold the same number of
// participants, equally split among the same number of occupied children.
#pragma once

#include <span>

#include "cps/stage.hpp"
#include "topology/fabric.hpp"

namespace ftcf::core {

/// Grouped recursive doubling over the full fabric (ranks are positions in
/// the topology order, i.e. host indices).
[[nodiscard]] cps::Sequence grouped_recursive_doubling(
    const topo::Fabric& fabric);

/// Grouped recursive doubling over a participant subset (host indices,
/// ascending). Pairs are expressed over *ranks* 0..P-1 of the compact
/// ordering of `participants`. Throws util::SpecError when the occupancy is
/// not uniform (see file comment).
[[nodiscard]] cps::Sequence grouped_recursive_doubling(
    const topo::Fabric& fabric, std::span<const std::uint64_t> participants);

/// The reversed sequence (grouped recursive halving): stages in reverse
/// order, with fold and unfold stages swapping roles and pair directions.
[[nodiscard]] cps::Sequence grouped_recursive_halving(
    const topo::Fabric& fabric);

}  // namespace ftcf::core
