// The minimal-path adaptive routing *relation* over a PGFT.
//
// The packet simulator's adaptive mode (sim::UpSelection::kAdaptive) keeps
// descents deterministic — once a switch is an ancestor of the destination
// the LFT entry decides the out-port — but lets the ascent pick *any* up
// port. Deadlock analysis of that mode therefore cannot look at one
// forwarding function: it must consider the whole relation of out-ports a
// packet may legally take at each (switch, destination). This header is that
// relation, and both the engine (sim/engine_core.cpp) and the adaptive CDG
// prover (check::analyze_adaptive_cdg) call it, so the static proof covers
// what the simulator does by construction:
//   * ancestor of the destination: the single LFT entry (whatever it is —
//     degraded or hand-edited tables may point anywhere);
//   * not an ancestor: every up port, regardless of the tables (an
//     unprogrammed entry does not stop an ascent);
//   * ancestor with no programmed entry: no candidates (the engine drops or
//     parks such heads; they forward nowhere).
#pragma once

#include <cstdint>

#include "routing/lft.hpp"

namespace ftcf::route {

/// The out-port indices [first, first + count) on one switch. Every
/// candidate set of the adaptive relation is one such contiguous range: the
/// single LFT entry, every up port, or nothing.
struct PortRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// The out-ports (on `sw`) a packet for host `dest` may leave through under
/// adaptive minimal routing, given the stored LFT entry of (sw, dest) — its
/// out-port or kUnroutedPort (callers scanning many entries read them from
/// ForwardingTables::row). Allocation-free; safe to call concurrently.
[[nodiscard]] PortRange adaptive_candidates(const topo::Fabric& fabric,
                                            topo::NodeId sw,
                                            std::uint64_t dest,
                                            std::uint32_t entry);

/// Aggregate size of the relation — how much wider it is than a function.
struct AdaptiveRelationStats {
  std::uint64_t pairs = 0;       ///< (switch, dest) pairs with >= 1 candidate
  std::uint64_t candidates = 0;  ///< total out-port candidates over all pairs
  std::uint32_t max_fanout = 0;  ///< widest single (switch, dest) choice
};

[[nodiscard]] AdaptiveRelationStats adaptive_relation_stats(
    const topo::Fabric& fabric, const ForwardingTables& tables);

}  // namespace ftcf::route
