#include "routing/trace.hpp"

#include "util/expects.hpp"

namespace ftcf::route {

using topo::Fabric;

const char* route_status_name(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::kOk: return "ok";
    case RouteStatus::kUnrouted: return "unrouted";
    case RouteStatus::kLoop: return "loop";
    case RouteStatus::kForeignHost: return "foreign-host";
    case RouteStatus::kNotUpDown: return "not-up-down";
    case RouteStatus::kDeadLink: return "dead-link";
  }
  return "?";
}

std::uint32_t host_up_port(const Fabric& fabric, std::uint64_t src,
                           std::uint64_t dest) {
  return host_up_port(fabric.node(fabric.host_node(src)), dest);
}

void require_delivered(RouteStatus status) {
  util::ensures(status != RouteStatus::kLoop, "forwarding tables loop");
  util::ensures(status != RouteStatus::kForeignHost,
                "route crossed a foreign host");
  util::expects(status != RouteStatus::kUnrouted,
                "LFT entry was never programmed");
  util::ensures(status == RouteStatus::kOk, "route not delivered");
}

std::vector<topo::PortId> trace_route(const Fabric& fabric,
                                      const ForwardingTables& tables,
                                      std::uint64_t src, std::uint64_t dst) {
  util::expects(src < fabric.num_hosts() && dst < fabric.num_hosts(),
                "trace endpoints must be valid hosts");
  std::vector<topo::PortId> links;
  require_delivered(walk_lft(fabric, tables, fabric.host_node(src), dst,
                             [&](const RouteHop& hop) {
                               links.push_back(hop.out);
                               return kKeepWalking;
                             }));
  return links;
}

}  // namespace ftcf::route
