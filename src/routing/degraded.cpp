#include "routing/degraded.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "routing/dmodk.hpp"

namespace ftcf::route {

using fault::FaultState;
using fault::LinkHealth;
using topo::Fabric;
using topo::NodeId;
using topo::PgftSpec;
using topo::PortId;

std::uint32_t pristine_dmodk_port(const Fabric& fabric, NodeId sw,
                                  std::uint64_t dest) {
  const PgftSpec& spec = fabric.spec();
  const topo::Node& node = fabric.node(sw);
  const std::uint32_t l = node.level;
  if (fabric.is_ancestor_of_host(sw, dest)) {
    const std::uint32_t child_col = fabric.host_digit(dest, l);
    return child_col + DModKRouter::down_rail_formula(spec, l, dest) * spec.m(l);
  }
  return node.num_down_ports + DModKRouter::up_port_formula(spec, l, dest);
}

std::uint32_t chooser_scan_rank(const Fabric& fabric, NodeId sw,
                                std::uint64_t dest, std::uint32_t port) {
  const PgftSpec& spec = fabric.spec();
  const topo::Node& node = fabric.node(sw);
  const std::uint32_t l = node.level;
  if (fabric.is_ancestor_of_host(sw, dest)) {
    const std::uint32_t p = spec.p(l);
    const std::uint32_t rail = port / spec.m(l);
    const std::uint32_t r0 = DModKRouter::down_rail_formula(spec, l, dest);
    return (rail + p - r0) % p;
  }
  const std::uint32_t w = spec.w(l + 1);
  const std::uint32_t p = spec.p(l + 1);
  const std::uint32_t q0 = DModKRouter::up_port_formula(spec, l, dest);
  const std::uint32_t q = port - node.num_down_ports;
  const std::uint32_t g = (q % w + w - q0 % w) % w;
  const std::uint32_t r = (q / w + p - q0 / w) % p;
  return g * p + r;
}

DestinationRouter::DestinationRouter(const Fabric& fabric, LinkHealth health)
    : fabric_(&fabric), health_(health), viable_(fabric.num_nodes(), 0) {}

/// Per-destination viability of every switch on the degraded graph:
/// viable[sw] == packets for `dest` sitting at `sw` can still be delivered.
/// For ancestors of dest this is down-viability (the unique descent works);
/// for non-ancestors it is "some surviving up-link reaches a viable parent".
void DestinationRouter::sweep(std::uint64_t dest) {
  std::fill(viable_.begin(), viable_.end(), 0);
  const PgftSpec& spec = fabric_->spec();
  // Ancestors, bottom-up: descent through the unique child subtree.
  for (std::uint32_t l = 1; l <= fabric_->height(); ++l) {
    for (std::uint64_t o = 0; o < fabric_->switches_at_level(l); ++o) {
      const NodeId sw = fabric_->switch_node(l, o);
      if (!health_.node_up(sw)) continue;
      if (!fabric_->is_ancestor_of_host(sw, dest)) continue;
      const std::uint32_t child_col = fabric_->host_digit(dest, l);
      for (std::uint32_t k = 0; k < spec.p(l); ++k) {
        const PortId down = fabric_->port_id(sw, child_col + k * spec.m(l));
        if (!health_.link_up(down)) continue;
        const NodeId child = fabric_->port(fabric_->port(down).peer).node;
        if (!health_.node_up(child)) break;  // same child on every rail
        if (l > 1 && !viable_[child]) break;
        viable_[sw] = 1;
        break;
      }
    }
  }
  // Non-ancestors, top-down: any surviving up-link to a viable parent.
  for (std::uint32_t l = fabric_->height(); l-- > 1;) {
    for (std::uint64_t o = 0; o < fabric_->switches_at_level(l); ++o) {
      const NodeId sw = fabric_->switch_node(l, o);
      if (!health_.node_up(sw)) continue;
      if (fabric_->is_ancestor_of_host(sw, dest)) continue;
      const topo::Node& node = fabric_->node(sw);
      for (std::uint32_t q = 0; q < node.num_up_ports; ++q) {
        const PortId up = fabric_->port_id(sw, node.num_down_ports + q);
        if (!health_.link_up(up)) continue;
        const NodeId parent = fabric_->port(fabric_->port(up).peer).node;
        if (health_.node_up(parent) && viable_[parent]) {
          viable_[sw] = 1;
          break;
        }
      }
    }
  }
}

DestStats DestinationRouter::route(std::uint64_t dest,
                                   ForwardingTables& tables) {
  sweep(dest);
  const PgftSpec& spec = fabric_->spec();
  const bool dest_up = health_.host_up(dest);
  DestStats out;

  for (const NodeId sw : fabric_->switch_ids()) {
    tables.clear_entry(sw, dest);
    if (!health_.node_up(sw)) continue;
    const topo::Node& node = fabric_->node(sw);
    const std::uint32_t l = node.level;
    std::uint32_t chosen = kUnroutedPort;
    std::uint32_t pristine = kUnroutedPort;

    if (fabric_->is_ancestor_of_host(sw, dest)) {
      // Down: the child subtree is fixed; fall back across parallel rails.
      const std::uint32_t child_col = fabric_->host_digit(dest, l);
      const std::uint32_t p = spec.p(l);
      const std::uint32_t r0 = DModKRouter::down_rail_formula(spec, l, dest);
      pristine = child_col + r0 * spec.m(l);
      for (std::uint32_t i = 0; i < p && chosen == kUnroutedPort; ++i) {
        const std::uint32_t rail = (r0 + i) % p;
        const std::uint32_t port = child_col + rail * spec.m(l);
        const PortId down = fabric_->port_id(sw, port);
        if (!health_.link_up(down)) continue;
        const NodeId child = fabric_->port(fabric_->port(down).peer).node;
        if (!health_.node_up(child)) break;
        if (l == 1) {
          if (!dest_up) break;
        } else if (!viable_[child]) {
          break;
        }
        chosen = port;
      }
    } else {
      // Up: next surviving parallel rail of the same parent, then the
      // next parent group — the least disruptive deviation first.
      const std::uint32_t w = spec.w(l + 1);
      const std::uint32_t p = spec.p(l + 1);
      const std::uint32_t q0 = DModKRouter::up_port_formula(spec, l, dest);
      pristine = node.num_down_ports + q0;
      const std::uint32_t b0 = q0 % w;
      const std::uint32_t k0 = q0 / w;
      for (std::uint32_t g = 0; g < w && chosen == kUnroutedPort; ++g) {
        const std::uint32_t b = (b0 + g) % w;
        for (std::uint32_t r = 0; r < p; ++r) {
          const std::uint32_t k = (k0 + r) % p;
          const std::uint32_t q = b + k * w;
          const PortId up = fabric_->port_id(sw, node.num_down_ports + q);
          if (!health_.link_up(up)) continue;
          const NodeId parent = fabric_->port(fabric_->port(up).peer).node;
          if (!health_.node_up(parent) || !viable_[parent]) continue;
          chosen = node.num_down_ports + q;
          break;
        }
      }
    }

    if (chosen == kUnroutedPort) {
      ++out.unrouted;
      continue;
    }
    tables.set_out_port(sw, dest, chosen);
    ++out.programmed;
    if (chosen != pristine) ++out.rerouted;
    out.reachable = true;
  }
  return out;
}

ForwardingTables compute_degraded_dmodk(const Fabric& fabric,
                                        const LinkHealth& health,
                                        DegradedStats* stats) {
  ForwardingTables tables(fabric);
  DegradedStats local;
  DestinationRouter router(fabric, health);

  for (std::uint64_t dest = 0; dest < fabric.num_hosts(); ++dest) {
    const DestStats ds = router.route(dest, tables);
    local.entries_programmed += ds.programmed;
    local.entries_rerouted += ds.rerouted;
    local.entries_unrouted += ds.unrouted;
    if (!ds.reachable) ++local.unreachable_hosts;
  }

  if (stats != nullptr) *stats = local;
  return tables;
}

ForwardingTables compute_degraded_dmodk(const FaultState& state,
                                        DegradedStats* stats) {
  FTCF_PROF_SCOPE("dmodk_degraded_build");
  return compute_degraded_dmodk(state.fabric(), state.health(), stats);
}

}  // namespace ftcf::route
