// Degraded-mode D-Mod-K routing: Eq. (1) with local re-route around faults.
//
// On a pristine fabric this reproduces DModKRouter exactly. With faults
// present, every up-port choice falls back from the closed-form port to the
// next surviving parallel rail of the same parent (k+1, k+2, ... mod p), then
// to the next parent group (b+1, b+2, ... mod w) — the cheapest deviation
// from the contention-free assignment first. Down-going choices keep the
// unique child subtree (a tree property, faults cannot change it) and fall
// back across the p parallel rails the same way.
//
// A candidate port is accepted only when its cable is up, its peer switch is
// alive, *and* the peer can still reach the destination (a per-destination
// viability sweep over the degraded graph) — so the tables never steer
// packets into a cul-de-sac. Destinations with no surviving path are left
// unprogrammed (route::kUnroutedPort) and reported as typed counts, never as
// crashes; route::validate_lft() surfaces them per pair.
//
// The chooser is exposed per destination (DestinationRouter) over the
// mutation-agnostic fault::LinkHealth view: full builds loop it over every
// destination, and route::IncrementalRepair re-runs it for exactly the
// destinations a fabric-churn event dirtied. Both paths execute the same
// code, which is what makes "incremental ≡ full recompute" a theorem about
// dirty-set soundness rather than a hope about duplicated logic.
#pragma once

#include "fault/degraded.hpp"
#include "routing/router.hpp"

namespace ftcf::route {

/// What the degraded table build did, for reports and tests.
struct DegradedStats {
  std::uint64_t entries_programmed = 0;
  std::uint64_t entries_rerouted = 0;   ///< differ from pristine D-Mod-K
  std::uint64_t entries_unrouted = 0;   ///< no surviving path (alive switches)
  std::uint64_t unreachable_hosts = 0;  ///< hosts no alive switch can reach
};

/// One destination's slice of DegradedStats: what the chooser did across all
/// alive switches for that destination column.
struct DestStats {
  std::uint32_t programmed = 0;
  std::uint32_t rerouted = 0;
  std::uint32_t unrouted = 0;
  bool reachable = false;  ///< some alive switch can deliver to this host
};

/// The pristine D-Mod-K out-port of `sw` towards `dest` (the closed forms of
/// Eq. (1)); what the chooser would program on a fault-free fabric, and the
/// yardstick "rerouted" is measured against.
[[nodiscard]] std::uint32_t pristine_dmodk_port(const topo::Fabric& fabric,
                                                topo::NodeId sw,
                                                std::uint64_t dest);

/// Position of out-port `port` in the order the chooser at `sw` scans its
/// candidates for `dest` (0 == the pristine port, scanned first). For an
/// ancestor of `dest`, `port` must be a rail of the child column and the
/// rank counts rails from the D-Mod-K rail r0; otherwise `port` must be an
/// up port and the rank follows (b0+g) mod w, then (k0+r) mod p.
[[nodiscard]] std::uint32_t chooser_scan_rank(const topo::Fabric& fabric,
                                              topo::NodeId sw,
                                              std::uint64_t dest,
                                              std::uint32_t port);

/// The degraded chooser for one destination at a time. Holds the viability
/// scratch, so one instance per worker thread; distinct destinations write
/// disjoint LFT columns and may be routed concurrently.
class DestinationRouter {
 public:
  DestinationRouter(const topo::Fabric& fabric, fault::LinkHealth health);

  /// Clear destination `dest`'s column (every switch, dead or alive) and
  /// re-program it against the current health view. Returns what happened.
  DestStats route(std::uint64_t dest, ForwardingTables& tables);

 private:
  void sweep(std::uint64_t dest);
  [[nodiscard]] bool viable(topo::NodeId sw) const { return viable_[sw] != 0; }

  const topo::Fabric* fabric_;
  fault::LinkHealth health_;
  std::vector<std::uint8_t> viable_;
};

/// Build degraded D-Mod-K tables for `fabric` against a liveness view.
/// Entries of dead switches are left unprogrammed (they forward nothing).
[[nodiscard]] ForwardingTables compute_degraded_dmodk(
    const topo::Fabric& fabric, const fault::LinkHealth& health,
    DegradedStats* stats = nullptr);

/// Build degraded D-Mod-K tables for the fault state's fabric.
[[nodiscard]] ForwardingTables compute_degraded_dmodk(
    const fault::FaultState& state, DegradedStats* stats = nullptr);

}  // namespace ftcf::route
