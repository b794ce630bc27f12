// Incremental D-Mod-K repair under fabric churn.
//
// A churn event (cable/switch failure or repair) invalidates only the LFT
// columns of destinations whose paths interact with the changed component.
// IncrementalRepair maintains, per destination, the set of cables its
// programmed column traverses plus a count of deviations from pristine
// D-Mod-K, and on each event re-routes exactly the dirty destinations
// through the same DestinationRouter the full build uses. The dirty sets
// are provably sufficient (monotonicity of the chooser's accept/reject
// decisions under health changes):
//
//   * cable FAIL     — health only degrades, so previously-rejected
//     candidates stay rejected; an entry changes only when its own cable
//     died or a viability flip chain (which bottoms out at a programmed
//     column cable) reached it. Dirty = destinations whose column uses the
//     failed cable.
//   * cable REPAIR   — health only improves. Let the cable join lower
//     switch u (through its up port) to upper switch v. Viability is
//     monotone in health, and the cable adds one candidate edge for each
//     destination d: u -> v when u is not an ancestor of d, v -> u (a rail
//     of d's child column) when it is. So a viability flip must start at u
//     or v, and an alive switch holds an entry exactly when it is viable.
//     With both viable, no viability moves, every scan meets the same
//     accept/reject answers except for the new candidate, and only the
//     switch that scans it can change — to it, and only when it comes
//     before the current entry in the scan (chooser_scan_rank). A fully
//     pristine column holds every scan's first candidate, so it never
//     changes. Dirty = non-pristine destinations where u or v has no
//     entry, or the cable is scanned before the entry of u (ascending) or
//     v (descending). Host-attached cables dirty every non-pristine
//     destination.
//   * switch FAIL    — equivalent to failing every adjacent cable that was
//     still up, plus dropping the dead switch from the per-destination
//     bookkeeping (its unrouted count no longer exists in a full build).
//   * switch REPAIR  — non-pristine destinations recompute; fully pristine
//     destinations only need the revived switch's row filled with the
//     pristine entry, validated against the chooser's acceptance rule
//     (validation failure demotes the destination to a full recompute).
//
// Every event returns a RepairDelta: which columns changed (the exact
// re-certification dirty set), which rows were fast-path filled, and the
// post-event aggregate stats. The differential oracle in tests/churn
// asserts tables() == compute_degraded_dmodk(fabric, health()) after every
// event of a long random timeline, at several thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/degraded.hpp"

namespace ftcf::route {

/// What one churn event did to the forwarding state.
struct RepairDelta {
  /// False when the event changed no link/node health bit (e.g. failing an
  /// already-dead cable, or repairing a cable whose endpoint switch is
  /// still down); the tables are untouched in that case.
  bool applied = false;
  /// Destinations whose LFT column actually changed, ascending. This is
  /// the exact dirty set a re-certification must re-walk.
  std::vector<std::uint64_t> changed_dests;
  /// Destinations whose only change is a pristine entry filled into the
  /// revived switch's row (switch repair fast path), ascending.
  std::vector<std::uint64_t> row_filled_dests;
  /// The revived switch for row_filled_dests (kInvalidNode otherwise).
  topo::NodeId row_switch = topo::kInvalidNode;
  /// Total (switch, destination) slots whose value changed.
  std::uint64_t entries_changed = 0;
  /// Aggregate stats after the event (what a full rebuild would report).
  DegradedStats stats;
};

/// Streaming repair engine: owns the live health arrays and forwarding
/// tables, and applies churn events in amortized sub-linear time. All
/// recomputation funnels through DestinationRouter, so the tables are at
/// every point byte-identical to a from-scratch compute_degraded_dmodk over
/// the same health view — incremental is an optimization, never a fork.
class IncrementalRepair {
 public:
  /// Start from a health snapshot (full table build, parallelized over
  /// destinations with a deterministic serial fold).
  IncrementalRepair(const topo::Fabric& fabric,
                    const fault::LinkHealth& initial);
  /// Start from a resolved static fault state.
  explicit IncrementalRepair(const fault::FaultState& state);

  [[nodiscard]] const topo::Fabric& fabric() const noexcept {
    return *fabric_;
  }
  [[nodiscard]] const ForwardingTables& tables() const noexcept {
    return tables_;
  }
  /// Live liveness view (valid as long as this object exists; reflects all
  /// events applied so far).
  [[nodiscard]] fault::LinkHealth health() const noexcept {
    return fault::LinkHealth{fabric_, &link_down_, &node_down_};
  }
  /// Aggregate of the per-destination stats (== a full rebuild's stats).
  [[nodiscard]] DegradedStats stats() const;

  /// Destinations currently deviating from pristine D-Mod-K (rerouted or
  /// unrouted at some alive switch) — the HSD-degradation denominator.
  [[nodiscard]] std::uint64_t non_pristine_dests() const;

  // --- events; `port` may be either endpoint of the cable ---
  RepairDelta fail_cable(topo::PortId port);
  RepairDelta repair_cable(topo::PortId port);
  RepairDelta fail_switch(topo::NodeId sw);
  RepairDelta repair_switch(topo::NodeId sw);

 private:
  [[nodiscard]] topo::PortId canonical(topo::PortId port) const {
    return std::min(port, fabric_->port(port).peer);
  }
  [[nodiscard]] bool column_uses(std::uint64_t dest,
                                 const std::vector<topo::PortId>& cables) const;
  /// Re-route `dests` (ascending) in parallel; each worker also diffs its
  /// destinations against their pre-event columns and refreshes their
  /// bookkeeping. `delta` (when non-null) gets the changed columns.
  void recompute_columns(const std::vector<std::uint64_t>& dests,
                         RepairDelta* delta);

  const topo::Fabric* fabric_;
  std::vector<std::uint8_t> link_down_;     ///< per directed link (PortId)
  std::vector<std::uint8_t> node_down_;     ///< per NodeId
  /// Per canonical cable id (the lower PortId of the pair): the cable
  /// itself is failed, independently of its endpoint switches. A switch
  /// repair does not revive independently-failed adjacent cables.
  std::vector<std::uint8_t> cable_failed_;
  ForwardingTables tables_;
  std::vector<DestStats> dest_stats_;       ///< per destination
  /// Sorted canonical cable ids each destination's programmed column uses.
  std::vector<std::vector<topo::PortId>> column_links_;
  /// Per destination: alive-switch entries deviating from pristine D-Mod-K
  /// (different port, or missing). 0 == fully pristine column.
  std::vector<std::uint32_t> non_pristine_;
};

}  // namespace ftcf::route
