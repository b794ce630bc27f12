#include "routing/validate.hpp"

#include <sstream>

#include "util/expects.hpp"

namespace ftcf::route {

using topo::Fabric;
using topo::ValidationReport;

namespace {

/// One-line problem report for an undelivered or unsafe walk.
std::string describe(std::uint64_t src, std::uint64_t dst,
                     const RouteWalk& walk) {
  std::ostringstream oss;
  oss << "route " << src << " -> " << dst << ": "
      << route_status_name(walk.status) << " after " << walk.links.size()
      << " link(s)";
  return oss.str();
}

/// Apply `fn(src, dst)` over the pair set validate_routing uses: exhaustive
/// below the limit, the deterministic strided sample above it.
template <typename Fn>
void for_each_pair(std::uint64_t n, std::uint64_t exhaustive_limit, Fn&& fn) {
  if (n <= exhaustive_limit) {
    for (std::uint64_t s = 0; s < n; ++s)
      for (std::uint64_t d = 0; d < n; ++d)
        if (s != d) fn(s, d);
    return;
  }
  const std::uint64_t stride = n / 64 + 1;
  for (std::uint64_t s = 0; s < n; ++s)
    for (std::uint64_t d = s % stride; d < n; d += stride)
      if (s != d) fn(s, d);
}

}  // namespace

ValidationReport validate_routing(const Fabric& fabric,
                                  const ForwardingTables& tables,
                                  std::uint64_t exhaustive_limit) {
  ValidationReport report;
  for_each_pair(fabric.num_hosts(), exhaustive_limit,
                [&](std::uint64_t s, std::uint64_t d) {
                  const RouteWalk walk = walk_route(fabric, tables, s, d);
                  if (walk.status != RouteStatus::kOk)
                    report.fail(describe(s, d, walk));
                });
  return report;
}

RouteWalk walk_route(const Fabric& fabric, const ForwardingTables& tables,
                     std::uint64_t src, std::uint64_t dst,
                     const fault::FaultState* faults) {
  util::expects(src < fabric.num_hosts() && dst < fabric.num_hosts(),
                "walk endpoints must be valid hosts");
  RouteWalk walk;
  bool descending = false;
  walk.status = walk_lft(
      fabric, tables, fabric.host_node(src), dst,
      [&](const RouteHop& hop) -> std::optional<RouteStatus> {
        walk.links.push_back(hop.out);
        const bool up = fabric.is_up_port(hop.from, fabric.port(hop.out).index);
        if (up && descending) return RouteStatus::kNotUpDown;
        if (!up) descending = true;
        if (faults != nullptr &&
            (!faults->node_up(hop.from) || !faults->link_up(hop.out) ||
             !faults->node_up(hop.to)))
          return RouteStatus::kDeadLink;
        return kKeepWalking;
      });
  return walk;
}

std::string LftAudit::first_problem() const {
  if (!problems.empty()) return problems.front();
  if (deadlock_free.has_value() && !*deadlock_free)
    return "channel dependency graph contains a cycle (deadlock hazard)";
  return {};
}

LftAudit validate_lft(const Fabric& fabric, const ForwardingTables& tables,
                      const fault::FaultState* faults,
                      std::uint64_t exhaustive_limit, const CdgVerdict* cdg) {
  LftAudit audit;
  // With faults, restrict to surviving hosts: dead hosts cannot take part in
  // any collective, so their pairs carry no information.
  std::vector<std::uint64_t> hosts;
  if (faults != nullptr) {
    hosts = faults->surviving_hosts();
  } else {
    hosts.resize(fabric.num_hosts());
    for (std::uint64_t j = 0; j < hosts.size(); ++j) hosts[j] = j;
  }

  for_each_pair(hosts.size(), exhaustive_limit, [&](std::uint64_t si,
                                                    std::uint64_t di) {
    const std::uint64_t s = hosts[si];
    const std::uint64_t d = hosts[di];
    ++audit.pairs_checked;
    const RouteWalk walk = walk_route(fabric, tables, s, d, faults);
    switch (walk.status) {
      case RouteStatus::kOk:
        ++audit.pairs_reachable;
        break;
      case RouteStatus::kUnrouted:
        audit.unreachable.emplace_back(s, d);
        break;
      default: {
        if (walk.status == RouteStatus::kNotUpDown) ++audit.not_updown_routes;
        audit.problems.push_back(describe(s, d, walk));
        break;
      }
    }
  });

  if (cdg != nullptr) {
    audit.deadlock_free = cdg->acyclic;
    // A walk that turns upward after descending traverses a down-going
    // channel followed by an up-going one at the same switch for the same
    // destination — exactly a down->up dependency. If the CDG claims none
    // exist, one of the two analyses is wrong.
    if (audit.not_updown_routes > 0 && cdg->down_up_turns == 0) {
      audit.cdg_mismatch = true;
      std::ostringstream oss;
      oss << "walk/CDG cross-check failed: " << audit.not_updown_routes
          << " up-after-down route(s) but the channel dependency graph "
             "reports no down->up dependency";
      audit.problems.push_back(oss.str());
    }
  }
  return audit;
}

}  // namespace ftcf::route
