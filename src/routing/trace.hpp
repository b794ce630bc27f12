// Route walking over programmed forwarding tables: turns a (src, dst) host
// pair into the ordered list of directed links (source ports) it traverses.
// This is the primitive the Hot-Spot-Degree analysis counts over.
//
// walk_lft is the one implementation of "follow the LFTs towards a host".
// trace_route, walk_route, the HSD analyzer, the certifiers and the churn
// engine are thin callers that differ only in what they do per link and how
// they report an undelivered route.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "routing/lft.hpp"

namespace ftcf::route {

/// Outcome of walking one route through the tables.
enum class RouteStatus : std::uint8_t {
  kOk,           ///< delivered, up*/down*
  kUnrouted,     ///< hit an unprogrammed LFT entry (typed unreachability)
  kLoop,         ///< exceeded the maximal fat-tree route length
  kForeignHost,  ///< delivered to the wrong host
  kNotUpDown,    ///< turned upward after descending (deadlock hazard)
  kDeadLink,     ///< crossed a statically-down link or dead node
};

[[nodiscard]] const char* route_status_name(RouteStatus status) noexcept;

/// The up-going port index (among the host's up ports) a host uses towards
/// `dest`. RLFT hosts have a single cable; for general PGFTs we apply the
/// level-0 form of Eq. (1), q = dest mod (w_1 p_1), which all routers in
/// this library share.
[[nodiscard]] inline std::uint32_t host_up_port(const topo::Node& host,
                                                std::uint64_t dest) noexcept {
  if (host.num_up_ports == 1) return 0;
  return static_cast<std::uint32_t>(dest % host.num_up_ports);
}

/// host_up_port for host index `src`.
[[nodiscard]] std::uint32_t host_up_port(const topo::Fabric& fabric,
                                         std::uint64_t src, std::uint64_t dest);

/// Walk length bound: a minimal fat-tree route has at most 2h+1 links; the
/// slack makes a malformed table a reported loop, not an infinite walk.
[[nodiscard]] inline std::size_t max_route_links(
    const topo::Fabric& fabric) noexcept {
  return 2ull * fabric.height() + 2;
}

/// One link of a walked route.
struct RouteHop {
  topo::NodeId from;  ///< node the link leaves
  topo::PortId out;   ///< the link, named by the port it leaves from
  topo::NodeId to;    ///< node the link enters
};

/// What a walk_lft callback returns to let the walk go on.
inline constexpr std::optional<RouteStatus> kKeepWalking = std::nullopt;

/// Follow the tables from node `from` to host `dst`, calling
/// `on_hop(const RouteHop&)` for every link in order. A host leaves through
/// its host_up_port (a host walking to itself is delivered with no links);
/// a switch leaves through its LFT entry. The callback returns kKeepWalking
/// or a status, which stops the walk and is returned as its outcome.
/// Otherwise the walk ends kOk on reaching `dst`, kForeignHost on entering
/// another host, kUnrouted on an unprogrammed entry, and kLoop once it would
/// take more than max_route_links() + 1 links.
template <typename OnHop>
RouteStatus walk_lft(const topo::Fabric& fabric,
                     const ForwardingTables& tables, topo::NodeId from,
                     std::uint64_t dst, OnHop&& on_hop) {
  const topo::NodeId dst_node = fabric.host_node(dst);
  const topo::Node& start = fabric.node(from);
  std::uint32_t out_index = 0;
  if (start.kind == topo::NodeKind::kHost) {
    if (from == dst_node) return RouteStatus::kOk;
    out_index = start.num_down_ports + host_up_port(start, dst);
  } else {
    out_index = tables.entry(from, dst);
    if (out_index == kUnroutedPort) return RouteStatus::kUnrouted;
  }
  const std::size_t max_links = max_route_links(fabric);
  topo::NodeId at = from;
  for (std::size_t links = 0;; ++links) {
    if (links > max_links) return RouteStatus::kLoop;
    const topo::PortId out = fabric.port_id(at, out_index);
    const topo::NodeId to = fabric.port(fabric.port(out).peer).node;
    if (const std::optional<RouteStatus> stop = on_hop(RouteHop{at, out, to}))
      return *stop;
    if (to == dst_node) return RouteStatus::kOk;
    if (fabric.node(to).kind != topo::NodeKind::kSwitch)
      return RouteStatus::kForeignHost;
    out_index = tables.entry(to, dst);
    if (out_index == kUnroutedPort) return RouteStatus::kUnrouted;
    at = to;
  }
}

/// Throws what trace_route reports for an undelivered walk: a loop or a
/// foreign host is a util::InvariantError, an unprogrammed entry a
/// util::PreconditionError. Returns on kOk.
void require_delivered(RouteStatus status);

/// Trace src -> dst. Returns the directed links in order, each identified by
/// the PortId it leaves from (host NIC port first, destination NIC not
/// included). Throws as require_delivered when the route is not delivered.
[[nodiscard]] std::vector<topo::PortId> trace_route(
    const topo::Fabric& fabric, const ForwardingTables& tables,
    std::uint64_t src, std::uint64_t dst);

}  // namespace ftcf::route
