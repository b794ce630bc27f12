#include "analysis/hsd.hpp"

#include <algorithm>

#include "util/expects.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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
    std::span<const cps::Pair> host_flows, Workspace& workspace,
    std::vector<std::uint32_t>* link_loads) const {
  StageLoads& loads = workspace.loads_;
  loads.reset(fabric_->num_ports());
  std::uint64_t num_flows = 0;
  std::uint64_t unroutable_flows = 0;

  // Links are buffered per flow and committed only on delivery, so a flow
  // stranded by a degraded table leaves no partial load behind.
  std::vector<topo::PortId>& walked = workspace.walked_;
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
    } else if (status == route::RouteStatus::kUnrouted &&
               tolerate_unroutable_) {
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

StageMetrics HsdAnalyzer::analyze_stage(
    std::span<const cps::Pair> host_flows,
    std::vector<std::uint32_t>* link_loads) const {
  Workspace workspace;
  return analyze_stage(host_flows, workspace, link_loads);
}

SequenceMetrics HsdAnalyzer::analyze_sequence(
    const cps::Sequence& seq, const order::NodeOrdering& ordering) const {
  const std::size_t num_stages = seq.stages.size();
  const par::ForOptions options{.threads = 0, .grain = 1, .label = "hsd.stage"};
  std::vector<Workspace> workspaces(par::region_width(num_stages, options));
  std::vector<StageMetrics> per_stage(num_stages);
  par::parallel_for(
      num_stages,
      [&](std::size_t s, std::uint32_t worker) {
        const cps::Stage& stage = seq.stages[s];
        if (stage.empty()) return;  // StageMetrics{} stays all-zero
        const auto flows = ordering.map_stage(stage);
        per_stage[s] = analyze_stage(flows, workspaces[worker]);
      },
      options);

  // Serial fold in stage order: byte-identical for any thread count.
  SequenceMetrics out;
  out.per_stage_max.reserve(num_stages);
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t s = 0; s < num_stages; ++s) {
    const StageMetrics& metrics = per_stage[s];
    out.per_stage_max.push_back(metrics.max_hsd);
    out.worst_stage_hsd = std::max(out.worst_stage_hsd, metrics.max_hsd);
    out.worst_up_hsd = std::max(out.worst_up_hsd, metrics.max_up_hsd);
    out.worst_down_hsd = std::max(out.worst_down_hsd, metrics.max_down_hsd);
    out.unroutable_flows += metrics.unroutable_flows;
    if (seq.stages[s].empty()) continue;
    sum += metrics.max_hsd;
    if (metrics.max_hsd > 0) ++counted;
  }
  out.avg_max_hsd = counted ? sum / static_cast<double>(counted) : 0.0;
  return out;
}

util::Accumulator random_order_hsd_ensemble(
    const Fabric& fabric, const route::ForwardingTables& tables,
    const cps::Sequence& seq, std::uint32_t trials, std::uint64_t seed) {
  const HsdAnalyzer analyzer(fabric, tables);

  // Fixed-size trial blocks, independent of the thread count: block b owns
  // trials [b*kBlock, ...); each task accumulates its block in trial order
  // and the block accumulators merge in block order below, so the ensemble
  // statistics do not depend on how blocks were scheduled over threads.
  constexpr std::uint32_t kBlock = 4;
  const std::size_t num_blocks = (trials + kBlock - 1) / kBlock;
  const auto block_stats = par::parallel_map(
      num_blocks,
      [&](std::size_t block) {
        util::Accumulator acc;
        const std::uint32_t begin = static_cast<std::uint32_t>(block) * kBlock;
        const std::uint32_t end = std::min(trials, begin + kBlock);
        for (std::uint32_t t = begin; t < end; ++t) {
          const auto ordering =
              order::NodeOrdering::random(fabric, util::derive_seed(seed, t));
          acc.add(analyzer.analyze_sequence(seq, ordering).avg_max_hsd);
        }
        return acc;
      },
      par::ForOptions{.threads = 0, .grain = 1, .label = "hsd.ensemble"});

  util::Accumulator acc;
  for (const util::Accumulator& block : block_stats) acc.merge(block);
  return acc;
}

}  // namespace ftcf::analysis
