#include "fault/degraded.hpp"

#include <algorithm>
#include <charconv>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ftcf::fault {

using topo::Fabric;
using topo::NodeId;
using topo::PortId;
using util::SpecError;

namespace {

/// Parse a full-token unsigned value; returns false on any trailing garbage.
bool parse_index(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace

bool LinkHealth::host_up(std::uint64_t j) const {
  const NodeId host = fabric->host_node(j);
  if (!node_up(host)) return false;
  const topo::Node& n = fabric->node(host);
  for (std::uint32_t i = 0; i < n.num_up_ports; ++i) {
    const PortId up = fabric->port_id(host, n.num_down_ports + i);
    if (!link_up(up)) continue;
    if (node_up(fabric->port(fabric->port(up).peer).node)) return true;
  }
  return false;
}

NodeId FaultState::resolve_node(const Fabric& fabric, const std::string& name) {
  std::uint64_t index = 0;
  // Aliases first: leafK, spineK, Ll_Sk.
  if (name.rfind("leaf", 0) == 0 && parse_index(name.substr(4), index)) {
    if (index >= fabric.switches_at_level(1))
      throw SpecError("fault spec: no leaf switch '" + name + "'");
    return fabric.switch_node(1, index);
  }
  if (name.rfind("spine", 0) == 0 && parse_index(name.substr(5), index)) {
    if (index >= fabric.switches_at_level(fabric.height()))
      throw SpecError("fault spec: no spine switch '" + name + "'");
    return fabric.switch_node(fabric.height(), index);
  }
  if (name.size() >= 4 && name[0] == 'L') {
    const auto sep = name.find("_S");
    std::uint64_t level = 0;
    if (sep != std::string::npos &&
        parse_index(name.substr(1, sep - 1), level) &&
        parse_index(name.substr(sep + 2), index)) {
      if (level < 1 || level > fabric.height() ||
          index >= fabric.switches_at_level(static_cast<std::uint32_t>(level)))
        throw SpecError("fault spec: no switch '" + name + "'");
      return fabric.switch_node(static_cast<std::uint32_t>(level), index);
    }
  }
  // Exact fabric names ("S2_005", "H0013").
  for (NodeId id = 0; id < fabric.num_nodes(); ++id)
    if (fabric.node_name(id) == name) return id;
  throw SpecError("fault spec: unknown node '" + name +
                  "' (use a fabric name, leafK, spineK or Ll_Sk)");
}

PortId FaultState::resolve_cable(const Fabric& fabric, const std::string& node,
                                 std::uint32_t index) {
  const NodeId id = resolve_node(fabric, node);
  const topo::Node& n = fabric.node(id);
  if (index >= n.num_down_ports + n.num_up_ports)
    throw SpecError("fault spec: node '" + node + "' has no port " +
                    std::to_string(index));
  return fabric.port_id(id, index);
}

FaultState::FaultState(const Fabric& fabric, const FaultSpec& spec)
    : fabric_(&fabric), spec_(spec) {
  link_down_.assign(fabric.num_ports(), 0);
  node_down_.assign(fabric.num_nodes(), 0);
  rate_factor_.assign(fabric.num_ports(), 1.0);

  for (const Fault& fault : spec.faults) {
    switch (fault.kind) {
      case FaultKind::kLinkDown: {
        const PortId port = resolve_cable(fabric, fault.node, fault.port);
        // A timed link fault is a scripted death, not a static hole.
        if (fault.at > 0)
          flaps_.push_back(FlapEvent{port, fault.at, sim::kNever});
        else
          kill_cable(port);
        break;
      }
      case FaultKind::kSwitchDown: {
        const NodeId id = resolve_node(fabric, fault.node);
        if (fabric.node(id).kind != topo::NodeKind::kSwitch)
          throw SpecError("fault spec: switch fault targets non-switch '" +
                          fault.node + "'");
        if (fault.at > 0) {
          // A timed switch death: every adjacent cable dies at that time.
          const topo::Node& n = fabric.node(id);
          for (std::uint32_t i = 0; i < n.num_down_ports + n.num_up_ports; ++i)
            flaps_.push_back(
                FlapEvent{fabric.port_id(id, i), fault.at, sim::kNever});
        } else {
          kill_switch(id);
        }
        break;
      }
      case FaultKind::kDegradedRate: {
        const PortId port = resolve_cable(fabric, fault.node, fault.port);
        const PortId peer = fabric.port(port).peer;
        // Degrade both directions (a renegotiated cable is symmetric).
        if (rate_factor_[port] == 1.0 && rate_factor_[peer] == 1.0)
          ++cables_degraded_;
        rate_factor_[port] = std::min(rate_factor_[port], fault.rate_factor);
        rate_factor_[peer] = std::min(rate_factor_[peer], fault.rate_factor);
        break;
      }
      case FaultKind::kLinkFlap: {
        const PortId port = resolve_cable(fabric, fault.node, fault.port);
        flaps_.push_back(FlapEvent{port, fault.down_at, fault.up_at});
        break;
      }
      case FaultKind::kRandomLinks: {
        // Deterministic sample over switch-switch cables, identified by
        // their lower (up-going) endpoint in ascending PortId order.
        std::vector<PortId> cables;
        for (PortId pid = 0; pid < fabric.num_ports(); ++pid) {
          const topo::Port& pt = fabric.port(pid);
          const topo::Node& n = fabric.node(pt.node);
          if (n.kind != topo::NodeKind::kSwitch) continue;
          if (pt.index < n.num_down_ports) continue;  // count each cable once
          cables.push_back(pid);
        }
        util::Xoshiro256 rng(fault.seed);
        util::shuffle(cables, rng);
        const std::uint64_t take =
            std::min<std::uint64_t>(fault.count, cables.size());
        for (std::uint64_t i = 0; i < take; ++i) {
          if (fault.at > 0)
            flaps_.push_back(FlapEvent{cables[i], fault.at, sim::kNever});
          else
            kill_cable(cables[i]);
        }
        break;
      }
      case FaultKind::kRepairLink: {
        // A repair applies to the state built so far: the cable must be
        // statically down (killed by an earlier token) and comes back at
        // the scripted time.
        const PortId port = resolve_cable(fabric, fault.node, fault.port);
        if (link_up(port))
          throw SpecError("fault spec: repair of a cable that is not down: '" +
                          fault.to_string() +
                          "' (order the link fault before its repair)");
        repairs_.push_back(RepairEvent{port, fault.at});
        break;
      }
      case FaultKind::kRepairSwitch:
        throw SpecError(
            "fault spec: repair:switch is timeline-only — replay it with "
            "'ftcf_tool churn'");
      case FaultKind::kMtbf:
        throw SpecError(
            "fault spec: mtbf schedules are timeline-only — replay them with "
            "'ftcf_tool churn'");
    }
  }
}

void FaultState::kill_cable(PortId port) {
  const PortId peer = fabric_->port(port).peer;
  if (link_down_[port] && link_down_[peer]) return;  // already dead
  link_down_[port] = 1;
  link_down_[peer] = 1;
  ++cables_down_;
}

void FaultState::kill_switch(NodeId node) {
  if (node_down_[node]) return;
  node_down_[node] = 1;
  ++switches_down_;
  const topo::Node& n = fabric_->node(node);
  for (std::uint32_t i = 0; i < n.num_down_ports + n.num_up_ports; ++i)
    kill_cable(fabric_->port_id(node, i));
}

bool FaultState::host_up(std::uint64_t j) const {
  return health().host_up(j);
}

std::vector<std::uint64_t> FaultState::surviving_hosts() const {
  std::vector<std::uint64_t> out;
  out.reserve(fabric_->num_hosts());
  for (std::uint64_t j = 0; j < fabric_->num_hosts(); ++j)
    if (host_up(j)) out.push_back(j);
  return out;
}

}  // namespace ftcf::fault
