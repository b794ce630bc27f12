#include "ordering/ordering.hpp"

#include <algorithm>
#include <numeric>

#include "util/expects.hpp"
#include "util/rng.hpp"

namespace ftcf::order {

using util::expects;

NodeOrdering::NodeOrdering(std::vector<std::uint64_t> rank_to_host,
                           std::uint64_t num_fabric_hosts)
    : rank_to_host_(std::move(rank_to_host)),
      num_fabric_hosts_(num_fabric_hosts) {
  expects(!rank_to_host_.empty(), "ordering must place at least one rank");
  std::vector<bool> placed(num_fabric_hosts_, false);
  for (const std::uint64_t host : rank_to_host_) {
    expects(host < num_fabric_hosts_, "ordering places rank on unknown host");
    expects(!placed[host], "ordering places two ranks on one host");
    placed[host] = true;
  }
}

std::uint64_t NodeOrdering::host_of(std::uint64_t rank) const {
  expects(rank < rank_to_host_.size(), "rank out of range");
  return rank_to_host_[rank];
}

NodeOrdering NodeOrdering::topology(const topo::Fabric& fabric) {
  std::vector<std::uint64_t> hosts(fabric.num_hosts());
  std::iota(hosts.begin(), hosts.end(), std::uint64_t{0});
  return NodeOrdering(std::move(hosts), fabric.num_hosts());
}

NodeOrdering NodeOrdering::random(const topo::Fabric& fabric,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> hosts(fabric.num_hosts());
  std::iota(hosts.begin(), hosts.end(), std::uint64_t{0});
  util::shuffle(hosts, rng);
  return NodeOrdering(std::move(hosts), fabric.num_hosts());
}

NodeOrdering NodeOrdering::compact_subset(std::vector<std::uint64_t> hosts,
                                          std::uint64_t num_fabric_hosts) {
  std::sort(hosts.begin(), hosts.end());
  return NodeOrdering(std::move(hosts), num_fabric_hosts);
}

NodeOrdering NodeOrdering::random_subset(std::vector<std::uint64_t> hosts,
                                         std::uint64_t num_fabric_hosts,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  util::shuffle(hosts, rng);
  return NodeOrdering(std::move(hosts), num_fabric_hosts);
}

std::uint64_t num_sub_allocations(const topo::Fabric& fabric) {
  const topo::PgftSpec& spec = fabric.spec();
  const std::uint64_t columns = spec.w_prefix_product(spec.height());
  expects(columns > 0 && fabric.num_hosts() % columns == 0,
          "sub-allocation stride must divide the host count");
  return fabric.num_hosts() / columns;
}

NodeOrdering NodeOrdering::residue_allocation(
    const topo::Fabric& fabric, std::span<const std::uint32_t> residues) {
  const std::uint64_t stride = num_sub_allocations(fabric);
  std::vector<std::uint64_t> hosts;
  for (std::uint64_t j = 0; j < fabric.num_hosts(); ++j) {
    const auto residue = static_cast<std::uint32_t>(j % stride);
    if (std::find(residues.begin(), residues.end(), residue) != residues.end())
      hosts.push_back(j);
  }
  expects(!hosts.empty(), "residue allocation selected no hosts");
  return NodeOrdering(std::move(hosts), fabric.num_hosts());
}

NodeOrdering NodeOrdering::adversarial_ring(const topo::Fabric& fabric) {
  const topo::PgftSpec& spec = fabric.spec();
  const std::uint64_t n = fabric.num_hosts();
  const std::uint32_t per_leaf = spec.m(1);              // hosts per leaf
  const std::uint32_t up_ports = spec.up_ports_at_level(1);
  expects(spec.height() >= 2, "adversarial order needs at least 2 levels");
  expects(per_leaf == up_ports,
          "adversarial construction assumes an RLFT (m1 == w2*p2)");
  const std::uint64_t leaves = n / per_leaf;
  expects(leaves % up_ports == 0,
          "leaf count must be a multiple of the leaf up-port count");
  const std::uint64_t groups = leaves / up_ports;  // leaves sharing a residue

  // successor(l, t): host (l*K + t) is succeeded by the residue-c host of
  // leaf (t*groups + l/K), c = l mod K. Under D-Mod-K the leaf-level up-port
  // for destination j is j mod K, so every successor of leaf l's hosts sits
  // behind up-port c of leaf l: a Ring stage loads that one link K times.
  std::vector<std::uint64_t> successor(n);
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    const std::uint64_t c = leaf % up_ports;
    for (std::uint64_t t = 0; t < per_leaf; ++t) {
      const std::uint64_t target_leaf = t * groups + leaf / up_ports;
      successor[leaf * per_leaf + t] = target_leaf * per_leaf + c;
    }
  }

  // The successor map is a permutation but not necessarily one cycle; chain
  // its cycles into a single rank order. Only the splice points (one per
  // cycle) deviate from the adversarial pattern.
  std::vector<std::uint64_t> rank_to_host;
  rank_to_host.reserve(n);
  std::vector<bool> visited(n, false);
  for (std::uint64_t start = 0; start < n; ++start) {
    if (visited[start]) continue;
    std::uint64_t at = start;
    while (!visited[at]) {
      visited[at] = true;
      rank_to_host.push_back(at);
      at = successor[at];
    }
  }
  return NodeOrdering(std::move(rank_to_host), n);
}

NodeOrdering NodeOrdering::leaf_random(const topo::Fabric& fabric,
                                       std::uint64_t seed) {
  const std::uint32_t per_leaf = fabric.spec().m(1);
  const std::uint64_t leaves = fabric.num_hosts() / per_leaf;
  util::Xoshiro256 rng(seed);
  const auto leaf_order = util::random_permutation(leaves, rng);

  std::vector<std::uint64_t> hosts;
  hosts.reserve(fabric.num_hosts());
  for (const std::size_t leaf : leaf_order)
    for (std::uint32_t t = 0; t < per_leaf; ++t)
      hosts.push_back(static_cast<std::uint64_t>(leaf) * per_leaf + t);
  return NodeOrdering(std::move(hosts), fabric.num_hosts());
}

NodeOrdering NodeOrdering::leaf_interleaved(const topo::Fabric& fabric) {
  const std::uint32_t per_leaf = fabric.spec().m(1);
  const std::uint64_t leaves = fabric.num_hosts() / per_leaf;
  std::vector<std::uint64_t> hosts;
  hosts.reserve(fabric.num_hosts());
  for (std::uint32_t t = 0; t < per_leaf; ++t)
    for (std::uint64_t leaf = 0; leaf < leaves; ++leaf)
      hosts.push_back(leaf * per_leaf + t);
  return NodeOrdering(std::move(hosts), fabric.num_hosts());
}

std::vector<cps::Pair> NodeOrdering::map_stage(const cps::Stage& stage) const {
  std::vector<cps::Pair> mapped;
  mapped.reserve(stage.pairs.size());
  for (const cps::Pair& pr : stage.pairs) {
    mapped.push_back(cps::Pair{host_of(pr.src), host_of(pr.dst)});
  }
  return mapped;
}

}  // namespace ftcf::order
