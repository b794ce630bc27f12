#include "routing/incremental.hpp"

#include <algorithm>
#include <numeric>

#include "obs/profile.hpp"
#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::route {

using fault::FaultState;
using fault::LinkHealth;
using topo::Fabric;
using topo::NodeId;
using topo::PortId;
using util::expects;

IncrementalRepair::IncrementalRepair(const Fabric& fabric,
                                     const LinkHealth& initial)
    : fabric_(&fabric),
      link_down_(fabric.num_ports(), 0),
      node_down_(fabric.num_nodes(), 0),
      cable_failed_(fabric.num_ports(), 0),
      tables_(fabric),
      dest_stats_(fabric.num_hosts()),
      column_links_(fabric.num_hosts()),
      non_pristine_(fabric.num_hosts(), 0) {
  FTCF_PROF_SCOPE("incremental_repair_build");
  expects(initial.fabric == &fabric,
          "incremental repair health view targets a foreign fabric");
  for (PortId p = 0; p < fabric.num_ports(); ++p)
    link_down_[p] = initial.link_up(p) ? 0 : 1;
  for (NodeId n = 0; n < fabric.num_nodes(); ++n)
    node_down_[n] = initial.node_up(n) ? 0 : 1;
  // A cable down while both endpoints are alive is an independent cable
  // fault; one adjacent to a dead node is attributed to that node (and so
  // revives with it).
  for (PortId p = 0; p < fabric.num_ports(); ++p) {
    if (canonical(p) != p || !link_down_[p]) continue;
    const NodeId a = fabric.port(p).node;
    const NodeId b = fabric.port(fabric.port(p).peer).node;
    if (!node_down_[a] && !node_down_[b]) cable_failed_[p] = 1;
  }
  std::vector<std::uint64_t> all(fabric.num_hosts());
  std::iota(all.begin(), all.end(), std::uint64_t{0});
  recompute_columns(all, nullptr);
}

IncrementalRepair::IncrementalRepair(const FaultState& state)
    : IncrementalRepair(state.fabric(), state.health()) {}

DegradedStats IncrementalRepair::stats() const {
  DegradedStats out;
  for (const DestStats& ds : dest_stats_) {
    out.entries_programmed += ds.programmed;
    out.entries_rerouted += ds.rerouted;
    out.entries_unrouted += ds.unrouted;
    if (!ds.reachable) ++out.unreachable_hosts;
  }
  return out;
}

std::uint64_t IncrementalRepair::non_pristine_dests() const {
  return static_cast<std::uint64_t>(
      std::count_if(non_pristine_.begin(), non_pristine_.end(),
                    [](std::uint32_t n) { return n > 0; }));
}

bool IncrementalRepair::column_uses(
    std::uint64_t dest, const std::vector<PortId>& cables) const {
  const std::vector<PortId>& col = column_links_[dest];
  for (const PortId c : cables)
    if (std::binary_search(col.begin(), col.end(), c)) return true;
  return false;
}

void IncrementalRepair::recompute_columns(
    const std::vector<std::uint64_t>& dests, RepairDelta* delta) {
  if (dests.empty()) return;
  const auto switch_ids = fabric_->switch_ids();

  // Distinct destinations occupy disjoint LFT columns and bookkeeping
  // slots, so each worker snapshots, re-routes, diffs and re-indexes its
  // own destinations; only the delta lists fold serially below, in
  // ascending destination order, for byte determinism.
  struct Worker {
    DestinationRouter router;
    std::vector<std::uint32_t> before;  ///< the column before re-routing
  };
  const par::ForOptions opts{0, 1, "route.incremental"};
  const std::uint32_t width = par::region_width(dests.size(), opts);
  std::vector<Worker> workers;
  workers.reserve(width);
  for (std::uint32_t w = 0; w < width; ++w)
    workers.push_back({DestinationRouter(*fabric_, health()), {}});
  std::vector<std::uint32_t> changed(dests.size(), 0);
  par::parallel_for(
      dests.size(),
      [&](std::size_t i, std::uint32_t worker) {
        const std::uint64_t dest = dests[i];
        Worker& wk = workers[worker];
        wk.before.clear();
        for (const NodeId sw : switch_ids)
          wk.before.push_back(tables_.entry(sw, dest));
        const DestStats ds = wk.router.route(dest, tables_);
        // Dead switches hold no entry, so each entry is an alive switch's
        // and its out-cable belongs to the programmed column.
        std::vector<PortId>& col = column_links_[dest];
        col.clear();
        for (std::size_t j = 0; j < switch_ids.size(); ++j) {
          const std::uint32_t entry = tables_.entry(switch_ids[j], dest);
          if (entry != wk.before[j]) ++changed[i];
          if (entry != kUnroutedPort)
            col.push_back(canonical(fabric_->port_id(switch_ids[j], entry)));
        }
        std::sort(col.begin(), col.end());
        col.erase(std::unique(col.begin(), col.end()), col.end());
        dest_stats_[dest] = ds;
        non_pristine_[dest] = ds.unrouted + ds.rerouted;
      },
      opts);

  if (delta == nullptr) return;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (changed[i] == 0) continue;
    delta->changed_dests.push_back(dests[i]);
    delta->entries_changed += changed[i];
  }
}

RepairDelta IncrementalRepair::fail_cable(PortId port) {
  RepairDelta delta;
  const PortId peer = fabric_->port(port).peer;
  const PortId cable = canonical(port);
  const bool was_down = link_down_[port] != 0;
  // Record the independent fault even when the link is already down from a
  // dead endpoint: repairing that switch must not revive this cable.
  cable_failed_[cable] = 1;
  if (was_down) {
    delta.stats = stats();
    return delta;
  }
  link_down_[port] = 1;
  link_down_[peer] = 1;
  delta.applied = true;

  const std::vector<PortId> changed{cable};
  std::vector<std::uint64_t> dirty;
  for (std::uint64_t d = 0; d < fabric_->num_hosts(); ++d)
    if (column_uses(d, changed)) dirty.push_back(d);
  recompute_columns(dirty, &delta);
  delta.stats = stats();
  return delta;
}

RepairDelta IncrementalRepair::repair_cable(PortId port) {
  RepairDelta delta;
  const PortId peer = fabric_->port(port).peer;
  const PortId cable = canonical(port);
  if (!cable_failed_[cable]) {
    delta.stats = stats();
    return delta;
  }
  cable_failed_[cable] = 0;
  const NodeId a = fabric_->port(port).node;
  const NodeId b = fabric_->port(peer).node;
  if (node_down_[a] || node_down_[b]) {
    // The cable itself is mended but an endpoint is still dead; the link
    // revives with the switch repair.
    delta.stats = stats();
    return delta;
  }
  link_down_[port] = 0;
  link_down_[peer] = 0;
  delta.applied = true;

  // The cable joins lower node u (through its up port) to upper switch v;
  // u is a host for a host-attached cable. The dirty rule is argued in the
  // header; a pristine column holds every scan's first candidate.
  const bool a_is_lower = fabric_->is_up_port(a, fabric_->port(port).index);
  const NodeId u = a_is_lower ? a : b;
  const NodeId v = a_is_lower ? b : a;
  const std::uint32_t up_idx = fabric_->port(a_is_lower ? port : peer).index;
  const std::uint32_t down_idx = fabric_->port(a_is_lower ? peer : port).index;
  const bool host_cable = fabric_->node(u).kind == topo::NodeKind::kHost;
  // True when `sw`'s chooser scans `port_idx` before its entry for `d`.
  const auto scanned_first = [&](NodeId sw, std::uint64_t d,
                                 std::uint32_t port_idx) {
    return chooser_scan_rank(*fabric_, sw, d, port_idx) <
           chooser_scan_rank(*fabric_, sw, d, tables_.out_port(sw, d));
  };
  std::vector<std::uint64_t> dirty;
  for (std::uint64_t d = 0; d < fabric_->num_hosts(); ++d) {
    if (non_pristine_[d] == 0) continue;
    if (host_cable || !tables_.has_entry(u, d) || !tables_.has_entry(v, d) ||
        (fabric_->is_ancestor_of_host(u, d) ? scanned_first(v, d, down_idx)
                                            : scanned_first(u, d, up_idx)))
      dirty.push_back(d);
  }
  recompute_columns(dirty, &delta);
  delta.stats = stats();
  return delta;
}

RepairDelta IncrementalRepair::fail_switch(NodeId sw) {
  expects(fabric_->node(sw).kind == topo::NodeKind::kSwitch,
          "fail_switch targets a non-switch");
  RepairDelta delta;
  if (node_down_[sw]) {
    delta.stats = stats();
    return delta;
  }
  node_down_[sw] = 1;
  delta.applied = true;

  // Equivalent to failing every adjacent cable that was still up.
  std::vector<PortId> newly_down;
  const topo::Node& node = fabric_->node(sw);
  for (std::uint32_t i = 0; i < node.num_down_ports + node.num_up_ports; ++i) {
    const PortId pid = fabric_->port_id(sw, i);
    const PortId peer = fabric_->port(pid).peer;
    if (!link_down_[pid]) newly_down.push_back(canonical(pid));
    link_down_[pid] = 1;
    link_down_[peer] = 1;
  }
  std::sort(newly_down.begin(), newly_down.end());

  std::vector<std::uint64_t> dirty;
  std::vector<std::uint8_t> is_dirty(fabric_->num_hosts(), 0);
  for (std::uint64_t d = 0; d < fabric_->num_hosts(); ++d) {
    if (!column_uses(d, newly_down)) continue;
    dirty.push_back(d);
    is_dirty[d] = 1;
  }
  // Destinations whose column avoids the dead switch entirely cannot have
  // an entry there (an entry's out-cable is adjacent); their only change is
  // that the switch's unrouted contribution leaves the bookkeeping.
  for (std::uint64_t d = 0; d < fabric_->num_hosts(); ++d) {
    if (is_dirty[d]) continue;
    expects(!tables_.has_entry(sw, d),
            "non-dirty destination has an entry at the failed switch");
    expects(dest_stats_[d].unrouted > 0 && non_pristine_[d] > 0,
            "failed switch missing from destination bookkeeping");
    --dest_stats_[d].unrouted;
    --non_pristine_[d];
  }
  recompute_columns(dirty, &delta);
  delta.stats = stats();
  return delta;
}

RepairDelta IncrementalRepair::repair_switch(NodeId sw) {
  expects(fabric_->node(sw).kind == topo::NodeKind::kSwitch,
          "repair_switch targets a non-switch");
  RepairDelta delta;
  if (!node_down_[sw]) {
    delta.stats = stats();
    return delta;
  }
  node_down_[sw] = 0;
  delta.applied = true;
  delta.row_switch = sw;

  // Adjacent cables revive with the switch unless independently failed or
  // attached to another dead node.
  const topo::Node& node = fabric_->node(sw);
  for (std::uint32_t i = 0; i < node.num_down_ports + node.num_up_ports; ++i) {
    const PortId pid = fabric_->port_id(sw, i);
    const PortId peer = fabric_->port(pid).peer;
    const NodeId other = fabric_->port(peer).node;
    const std::uint8_t down =
        (cable_failed_[canonical(pid)] || node_down_[other]) ? 1 : 0;
    link_down_[pid] = down;
    link_down_[peer] = down;
  }

  // Fully pristine destinations only need the revived switch's row filled:
  // every other alive switch already holds the first-scanned (pristine)
  // candidate, which an improving event cannot displace. The fill is
  // validated against the chooser's acceptance rule; failures demote the
  // destination to a full recompute.
  std::vector<std::uint64_t> dirty;
  for (std::uint64_t d = 0; d < fabric_->num_hosts(); ++d) {
    if (non_pristine_[d] > 0) {
      dirty.push_back(d);
      continue;
    }
    const std::uint32_t port_idx = pristine_dmodk_port(*fabric_, sw, d);
    const PortId pid = fabric_->port_id(sw, port_idx);
    bool ok = !link_down_[pid];
    if (ok) {
      const NodeId target = fabric_->port(fabric_->port(pid).peer).node;
      if (node_down_[target])
        ok = false;
      else if (fabric_->node(target).kind == topo::NodeKind::kHost)
        ok = true;  // alive cable + alive host == deliverable
      else
        ok = tables_.has_entry(target, d);  // entry <=> viable when alive
    }
    if (!ok) {
      dirty.push_back(d);
      continue;
    }
    tables_.set_out_port(sw, d, port_idx);
    delta.row_filled_dests.push_back(d);
    ++delta.entries_changed;
    ++dest_stats_[d].programmed;
    dest_stats_[d].reachable = true;
    const PortId cable = canonical(pid);
    std::vector<PortId>& col = column_links_[d];
    const auto it = std::lower_bound(col.begin(), col.end(), cable);
    if (it == col.end() || *it != cable) col.insert(it, cable);
  }
  recompute_columns(dirty, &delta);
  delta.stats = stats();
  return delta;
}

}  // namespace ftcf::route
