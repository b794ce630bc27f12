#include "routing/lft.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace ftcf::route {

using util::expects;

ForwardingTables::ForwardingTables(const topo::Fabric& fabric)
    : fabric_(&fabric), num_hosts_(fabric.num_hosts()) {
  expects(fabric.num_switches() > 0, "fabric has no switches to program");
  first_switch_ = fabric.switch_ids().front();
  table_.assign(fabric.num_switches() * num_hosts_, kUnroutedPort);
}

std::size_t ForwardingTables::slot(topo::NodeId sw, std::uint64_t dest) const {
  const topo::Node& n = fabric_->node(sw);
  expects(n.kind == topo::NodeKind::kSwitch, "LFT lookup on a non-switch");
  expects(dest < num_hosts_, "LFT destination out of range");
  // Switches are contiguous NodeIds after the hosts.
  return static_cast<std::size_t>(sw - first_switch_) * num_hosts_ + dest;
}

std::uint32_t ForwardingTables::out_port(topo::NodeId sw,
                                         std::uint64_t dest) const {
  const std::uint32_t port = entry(sw, dest);
  expects(port != kUnroutedPort, "LFT entry was never programmed");
  return port;
}

std::uint32_t ForwardingTables::entry(topo::NodeId sw,
                                      std::uint64_t dest) const {
  return table_[slot(sw, dest)];
}

std::span<const std::uint32_t> ForwardingTables::row(topo::NodeId sw) const {
  return std::span<const std::uint32_t>(table_).subspan(slot(sw, 0),
                                                        num_hosts_);
}

std::vector<std::span<const std::uint32_t>> ForwardingTables::rows() const {
  std::vector<std::span<const std::uint32_t>> out(fabric_->num_nodes());
  for (const topo::NodeId sw : fabric_->switch_ids()) out[sw] = row(sw);
  return out;
}

void ForwardingTables::set_out_port(topo::NodeId sw, std::uint64_t dest,
                                    std::uint32_t port) {
  const topo::Node& n = fabric_->node(sw);
  expects(port < n.num_down_ports + n.num_up_ports,
          "LFT out-port exceeds switch radix");
  table_[slot(sw, dest)] = port;
}

bool ForwardingTables::has_entry(topo::NodeId sw, std::uint64_t dest) const {
  return entry(sw, dest) != kUnroutedPort;
}

void ForwardingTables::clear_entry(topo::NodeId sw, std::uint64_t dest) {
  table_[slot(sw, dest)] = kUnroutedPort;
}

bool ForwardingTables::complete() const noexcept {
  return std::none_of(table_.begin(), table_.end(), [](std::uint32_t port) {
    return port == kUnroutedPort;
  });
}

}  // namespace ftcf::route
