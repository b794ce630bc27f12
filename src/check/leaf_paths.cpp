#include "check/leaf_paths.hpp"

#include <algorithm>
#include <optional>

#include "util/expects.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check::detail {

using topo::NodeId;
using topo::PortId;

LeafPaths::LeafPaths(const topo::Fabric& fabric,
                     const route::ForwardingTables& tables,
                     const order::NodeOrdering& ordering,
                     const cps::Sequence& sequence)
    : fabric_(&fabric),
      tables_(&tables),
      num_leaves_(static_cast<std::uint32_t>(fabric.switches_at_level(1))),
      ups_(fabric.node(fabric.host_node(0)).num_up_ports),
      width_(route::max_route_links(fabric) + 1),
      classes_(analysis::link_classes(fabric)),
      hosts_(ordering.hosts().begin(), ordering.hosts().end()),
      row_of_(fabric.num_hosts(), kNoRow),
      row_base_(hosts_.size(), 0) {
  entries_.reserve(hosts_.size() * ups_);
  for (const std::uint64_t h : hosts_) {
    const NodeId host = fabric.host_node(h);
    const topo::Node& n = fabric.node(host);
    util::ensures(n.num_up_ports == ups_,
                  "every host of a PGFT has the same up-port count");
    for (std::uint32_t u = 0; u < ups_; ++u) {
      const std::uint32_t index = n.num_down_ports + u;
      entries_.push_back(
          {static_cast<std::uint32_t>(
               fabric.node(fabric.neighbor(host, index)).ordinal),
           fabric.port_id(host, index)});
    }
  }
  dense_ = std::uint64_t{num_leaves_} * hosts_.size() <=
           kDenseSlotsPerPair * sequence.total_pairs();

  // Pass 1: mark the key of every flow.
  for (const cps::Stage& stage : sequence.stages) {
    for (const cps::Pair& pr : stage.pairs) {
      if (pr.src >= hosts_.size()) (void)ordering.host_of(pr.src);
      if (pr.dst >= hosts_.size()) (void)ordering.host_of(pr.dst);
      if (pr.src == pr.dst) continue;
      const std::uint64_t dst = hosts_[pr.dst];
      const std::uint32_t leaf = entry(pr.src, dst).leaf;
      std::uint32_t& row = row_of_[dst];
      if (!dense_) {
        row = 0;
        keys_.push_back(key(dst, leaf));
        continue;
      }
      if (row == kNoRow) {
        row = static_cast<std::uint32_t>(slots_.size() / num_leaves_);
        slots_.resize(slots_.size() + num_leaves_, kNoPath);
        row_base_[pr.dst] = slots_.size() - num_leaves_;
      }
      slots_[row_base_[pr.dst] + leaf] = 0;
    }
  }

  // Pass 2: number the keys destination-major and walk each once.
  if (dense_) {
    for (std::uint64_t dst = 0; dst < row_of_.size(); ++dst) {
      if (row_of_[dst] == kNoRow) continue;
      const std::size_t base = std::size_t{row_of_[dst]} * num_leaves_;
      for (std::uint32_t leaf = 0; leaf < num_leaves_; ++leaf) {
        if (slots_[base + leaf] == kNoPath) continue;
        slots_[base + leaf] = static_cast<std::uint32_t>(keys_.size());
        keys_.push_back(key(dst, leaf));
      }
    }
  } else {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }
  pool_.assign(keys_.size() * width_, 0);
  par::parallel_for(
      keys_.size(),
      [&](std::size_t p, std::uint32_t) {
        std::uint32_t* slot = pool_.data() + p * width_;
        const Walk w = walk(keys_[p] >> 32,
                            static_cast<std::uint32_t>(keys_[p]), slot + 1);
        *slot = w.length | (w.routable ? kRoutable : 0);
      },
      par::ForOptions{.threads = 0, .grain = 64, .label = "check.leaf_paths"});
}

std::uint32_t LeafPaths::path(std::uint64_t dst,
                              std::uint32_t leaf) const noexcept {
  const std::uint32_t row = row_of_[dst];
  if (row == kNoRow) return kNoPath;
  if (dense_) return slots_[std::size_t{row} * num_leaves_ + leaf];
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key(dst, leaf));
  return it != keys_.end() && *it == key(dst, leaf)
             ? static_cast<std::uint32_t>(it - keys_.begin())
             : kNoPath;
}

std::uint32_t LeafPaths::sparse_path(std::uint64_t k) const noexcept {
  return static_cast<std::uint32_t>(
      std::lower_bound(keys_.begin(), keys_.end(), k) - keys_.begin());
}

LeafPaths::Walk LeafPaths::walk(std::uint64_t dst, std::uint32_t leaf,
                                PortId* out) const {
  Walk result;
  const std::size_t capacity = stride();
  const route::RouteStatus status = route::walk_lft(
      *fabric_, *tables_, fabric_->switch_node(1, leaf), dst,
      [&](const route::RouteHop& hop) -> std::optional<route::RouteStatus> {
        // A host walk spends one link on injection: one leaf link beyond
        // the capacity would exceed its bound.
        if (result.length == capacity) return route::RouteStatus::kLoop;
        out[result.length++] = hop.out;
        return route::kKeepWalking;
      });
  result.routable = status == route::RouteStatus::kOk;
  if (status != route::RouteStatus::kUnrouted) route::require_delivered(status);
  return result;
}

void LeafPaths::store(std::uint32_t path, Walk walk, const PortId* links) {
  std::uint32_t* slot = pool_.data() + std::size_t{path} * width_;
  *slot = walk.length | (walk.routable ? kRoutable : 0);
  std::copy(links, links + walk.length, slot + 1);
}

StageWitness LeafPaths::fold_stage(std::span<const cps::Pair> pairs,
                                   analysis::StageLoads& loads,
                                   PortId& hot) const {
  loads.reset(classes_.size());
  StageWitness witness;
  for (const cps::Pair& pr : pairs) {
    if (pr.src == pr.dst) continue;
    ++witness.num_flows;
    Entry in;
    const std::uint32_t* slot =
        pool_.data() + std::size_t{flow_path(pr.src, pr.dst, in)} * width_;
    if ((*slot & kRoutable) == 0) {
      ++witness.unroutable_flows;
      continue;
    }
    loads.add(in.inject);
    for (const PortId pid : std::span(slot + 1, *slot & ~kRoutable))
      loads.add(pid);
  }
  const analysis::StageMetrics metrics = loads.fold(classes_);
  hot = metrics.hottest_port;
  witness.max_hsd = metrics.max_hsd;
  witness.max_up_hsd = metrics.max_up_hsd;
  witness.max_down_hsd = metrics.max_down_hsd;
  witness.links_loaded = metrics.links_loaded;
  return witness;
}

std::vector<CollidingFlow> LeafPaths::colliding(
    std::span<const cps::Pair> pairs, const StageWitness& w,
    PortId link) const {
  // A delivered route crosses a link at most once, so without stranded
  // flows exactly max_hsd flows cross the hot link and the scan may stop at
  // the last of them.
  const std::size_t wanted =
      w.unroutable_flows == 0
          ? std::min<std::size_t>(kMaxCollidingShown, w.max_hsd)
          : kMaxCollidingShown;
  std::vector<CollidingFlow> flows;
  for (const cps::Pair& pr : pairs) {
    if (flows.size() == wanted) break;
    if (pr.src == pr.dst) continue;
    Entry in;
    const std::span<const PortId> route = links(flow_path(pr.src, pr.dst, in));
    if (in.inject == link ||
        std::find(route.begin(), route.end(), link) != route.end())
      flows.push_back({hosts_[pr.src], hosts_[pr.dst]});
  }
  return flows;
}

}  // namespace ftcf::check::detail
