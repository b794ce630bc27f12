// FaultState: a FaultSpec resolved against a concrete Fabric.
//
// The resolution is the single source of truth every layer shares:
//   * routing reads link_up()/node_up() to re-route around missing cables;
//   * the packet simulator reads rate_factor() and the flap/repair schedules;
//   * analysis/benches read the summary counts to label their output.
//
// A "cable" is an undirected pair of ports; killing it marks both directed
// links down. A dead switch kills all of its cables. Flaps are *not* down at
// t=0 — they are scripted sim-time events the simulator executes — so static
// routing treats flapping cables as healthy (the §VII rerouting latency of a
// real subnet manager is far above a collective's makespan). A timed fault
// (`link:...@t=`, `switch:...@t=`) resolves to flaps the same way; a
// `repair:link:...@t=` revives a statically-dead cable at a scripted time.
// Timeline-only kinds (repair:switch, mtbf) are rejected here — they are
// resolved by churn::resolve_timeline instead.
//
// Resolution is deterministic: the same spec + fabric (+ seeds) always yields
// the same state, so fault experiments reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "topology/fabric.hpp"

namespace ftcf::fault {

/// A borrowed, mutation-agnostic view of per-link / per-node liveness: the
/// minimal surface degraded routing and the BFS connectivity oracle need.
/// FaultState exposes one over its static resolution; the churn engine
/// exposes one over its mutable health arrays — both route through the exact
/// same chooser code, which is what makes incremental ≡ full provable.
struct LinkHealth {
  const topo::Fabric* fabric = nullptr;
  const std::vector<std::uint8_t>* link_down = nullptr;  ///< per PortId
  const std::vector<std::uint8_t>* node_down = nullptr;  ///< per NodeId

  /// True when the directed link leaving `port` is up.
  [[nodiscard]] bool link_up(topo::PortId port) const {
    return !(*link_down)[port];
  }
  [[nodiscard]] bool node_up(topo::NodeId node) const {
    return !(*node_down)[node];
  }
  /// True when host j can inject/receive at all: the host, some up cable
  /// and the switch behind it are alive.
  [[nodiscard]] bool host_up(std::uint64_t j) const;
};

/// One scripted cable event for the simulator, resolved to a PortId (the
/// cable's lower, up-going endpoint; the simulator kills both directions).
struct FlapEvent {
  topo::PortId port = topo::kInvalidPort;
  sim::SimTime down_at = 0;
  sim::SimTime up_at = sim::kNever;  ///< kNever = the cable never revives
};

/// One scripted revival of a statically-dead cable (a `repair:link:...@t=`
/// token): the cable is down from t=0 and comes back at `up_at`.
struct RepairEvent {
  topo::PortId port = topo::kInvalidPort;
  sim::SimTime up_at = 0;
};

class FaultState {
 public:
  /// Resolve `spec` against `fabric`. Throws util::SpecError when a fault
  /// names an unknown node, an out-of-range port, targets a host where a
  /// switch is required, repairs a cable that is not statically down, or
  /// uses a timeline-only kind (repair:switch, mtbf).
  FaultState(const topo::Fabric& fabric, const FaultSpec& spec);

  [[nodiscard]] const topo::Fabric& fabric() const noexcept { return *fabric_; }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  /// True when the spec resolved to no faults at all (pristine fabric).
  [[nodiscard]] bool pristine() const noexcept {
    return cables_down_ == 0 && switches_down_ == 0 && cables_degraded_ == 0 &&
           flaps_.empty();
  }

  /// True when the directed link leaving `port` is statically up.
  [[nodiscard]] bool link_up(topo::PortId port) const {
    return !link_down_.at(port);
  }
  /// True when the node is statically alive.
  [[nodiscard]] bool node_up(topo::NodeId node) const {
    return !node_down_.at(node);
  }
  /// True when host j can inject/receive at all: the host, its leaf switch
  /// and the cable between them are alive.
  [[nodiscard]] bool host_up(std::uint64_t j) const;

  /// The shared liveness view over this static resolution.
  [[nodiscard]] LinkHealth health() const noexcept {
    return LinkHealth{fabric_, &link_down_, &node_down_};
  }

  /// Static bandwidth multiplier of the directed link leaving `port`
  /// (1.0 = nominal).
  [[nodiscard]] double rate_factor(topo::PortId port) const {
    return rate_factor_.at(port);
  }

  [[nodiscard]] const std::vector<FlapEvent>& flaps() const noexcept {
    return flaps_;
  }
  [[nodiscard]] const std::vector<RepairEvent>& repairs() const noexcept {
    return repairs_;
  }

  // --- summary (for reports/benches) ---
  [[nodiscard]] std::uint64_t cables_down() const noexcept {
    return cables_down_;
  }
  [[nodiscard]] std::uint64_t switches_down() const noexcept {
    return switches_down_;
  }
  [[nodiscard]] std::uint64_t cables_degraded() const noexcept {
    return cables_degraded_;
  }
  /// Hosts with host_up() true, in ascending order.
  [[nodiscard]] std::vector<std::uint64_t> surviving_hosts() const;

  /// Resolve a node name/alias ("S2_005", "H0013", "leaf0", "spine4",
  /// "L2_S1") to a NodeId; throws util::SpecError on unknown names.
  [[nodiscard]] static topo::NodeId resolve_node(const topo::Fabric& fabric,
                                                 const std::string& name);
  /// The cable attached to port `index` of `node`, identified by its PortId.
  /// Throws util::SpecError on unknown nodes or out-of-range ports.
  [[nodiscard]] static topo::PortId resolve_cable(const topo::Fabric& fabric,
                                                  const std::string& node,
                                                  std::uint32_t index);

 private:
  void kill_cable(topo::PortId port);
  void kill_switch(topo::NodeId node);

  const topo::Fabric* fabric_;
  FaultSpec spec_;
  std::vector<std::uint8_t> link_down_;   ///< per directed link (PortId)
  std::vector<std::uint8_t> node_down_;   ///< per NodeId
  std::vector<double> rate_factor_;       ///< per directed link (PortId)
  std::vector<FlapEvent> flaps_;
  std::vector<RepairEvent> repairs_;
  std::uint64_t cables_down_ = 0;
  std::uint64_t switches_down_ = 0;
  std::uint64_t cables_degraded_ = 0;
};

}  // namespace ftcf::fault
