#include "analysis/hsd.hpp"

#include <algorithm>

namespace ftcf::analysis {

using topo::Fabric;

std::vector<LinkClass> link_classes(const Fabric& fabric) {
  std::vector<LinkClass> classes(fabric.num_ports());
  for (topo::PortId pid = 0; pid < fabric.num_ports(); ++pid) {
    const topo::Port& pt = fabric.port(pid);
    const topo::Node& n = fabric.node(pt.node);
    if (n.kind == topo::NodeKind::kHost)
      classes[pid] = LinkClass::kInjection;
    else if (pt.index >= n.num_down_ports)
      classes[pid] = LinkClass::kUp;
    else if (fabric.node(fabric.port(pt.peer).node).kind ==
             topo::NodeKind::kHost)
      classes[pid] = LinkClass::kDelivery;
    else
      classes[pid] = LinkClass::kDown;
  }
  return classes;
}

void StageLoads::reset(std::size_t num_ports) {
  if (loads_.size() != num_ports) {
    loads_.assign(num_ports, 0u);
    touched_.reserve(num_ports);
  } else {
    for (const topo::PortId pid : touched_) loads_[pid] = 0;
  }
  touched_.clear();
}

StageMetrics StageLoads::fold(std::span<const LinkClass> classes) const {
  StageMetrics metrics;
  metrics.links_loaded = touched_.size();
  for (const topo::PortId pid : touched_) {
    const std::uint32_t load = loads_[pid];
    if (load > metrics.max_hsd ||
        (load == metrics.max_hsd && pid < metrics.hottest_port)) {
      metrics.max_hsd = load;
      metrics.hottest_port = pid;
    }
    switch (classes[pid]) {
      case LinkClass::kInjection:
        metrics.max_host_hsd = std::max(metrics.max_host_hsd, load);
        break;
      case LinkClass::kUp:
        metrics.max_up_hsd = std::max(metrics.max_up_hsd, load);
        break;
      case LinkClass::kDelivery:
        metrics.max_host_hsd = std::max(metrics.max_host_hsd, load);
        [[fallthrough]];
      case LinkClass::kDown:
        metrics.max_down_hsd = std::max(metrics.max_down_hsd, load);
        break;
    }
  }
  return metrics;
}

HsdAnalyzer::HsdAnalyzer(const Fabric& fabric,
                         const route::ForwardingTables& tables)
    : fabric_(&fabric), tables_(&tables), classes_(link_classes(fabric)) {}

StageMetrics HsdAnalyzer::analyze_stage(
    std::span<const cps::Pair> host_flows,
    std::vector<std::uint32_t>* link_loads) const {
  StageLoads loads;
  loads.reset(fabric_->num_ports());
  std::uint64_t num_flows = 0;
  std::uint64_t unroutable_flows = 0;

  // Links are buffered per flow and committed only on delivery, so a flow
  // stranded by a degraded table leaves no partial load behind.
  std::vector<topo::PortId> walked;
  walked.reserve(route::max_route_links(*fabric_) + 1);
  for (const cps::Pair& flow : host_flows) {
    if (flow.src == flow.dst) continue;
    ++num_flows;
    walked.clear();
    const route::RouteStatus status = route::walk_lft(
        *fabric_, *tables_, fabric_->host_node(flow.src), flow.dst,
        [&](const route::RouteHop& hop) {
          walked.push_back(hop.out);
          return route::kKeepWalking;
        });
    if (status == route::RouteStatus::kOk) {
      for (const topo::PortId pid : walked) loads.add(pid);
    } else if (status == route::RouteStatus::kUnrouted) {
      ++unroutable_flows;
    } else {
      route::require_delivered(status);
    }
  }

  StageMetrics metrics = loads.fold(classes_);
  metrics.num_flows = num_flows;
  metrics.unroutable_flows = unroutable_flows;
  if (link_loads != nullptr) {
    link_loads->assign(fabric_->num_ports(), 0u);
    for (const topo::PortId pid : loads.touched())
      (*link_loads)[pid] = loads.load(pid);
  }
  return metrics;
}

}  // namespace ftcf::analysis
