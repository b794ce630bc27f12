// MPI node ordering: the assignment of MPI ranks to cluster end-ports.
//
// The paper's central practical lever: with D-Mod-K routing, the *topology*
// order (rank == host linear index) makes every unidirectional CPS
// congestion-free, while random order costs ~40% of bandwidth and an
// adversarial order up to 92.9% (§I, §II).
//
// An ordering may cover only a subset of the hosts (a partial job): ranks
// 0..P-1 map to P distinct hosts of an N-host fabric.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cps/stage.hpp"
#include "topology/fabric.hpp"

namespace ftcf::order {

class NodeOrdering {
 public:
  /// rank r -> hosts[r]. Host indices must be distinct.
  explicit NodeOrdering(std::vector<std::uint64_t> rank_to_host,
                        std::uint64_t num_fabric_hosts);

  [[nodiscard]] std::uint64_t num_ranks() const noexcept {
    return rank_to_host_.size();
  }
  [[nodiscard]] std::uint64_t num_fabric_hosts() const noexcept {
    return num_fabric_hosts_;
  }
  [[nodiscard]] std::uint64_t host_of(std::uint64_t rank) const;
  [[nodiscard]] std::span<const std::uint64_t> hosts() const noexcept {
    return rank_to_host_;
  }

  // --- factories -----------------------------------------------------------

  /// Topology-aware order over the whole fabric: rank == host index.
  /// This is the paper's "MPI-node-order matching the routing".
  static NodeOrdering topology(const topo::Fabric& fabric);

  /// Uniformly random order over the whole fabric (the §II baseline).
  static NodeOrdering random(const topo::Fabric& fabric, std::uint64_t seed);

  /// Partial job over the given hosts, ranked in ascending host order
  /// ("compact" ranking).
  static NodeOrdering compact_subset(std::vector<std::uint64_t> hosts,
                                     std::uint64_t num_fabric_hosts);

  /// Partial job over the given hosts in random rank order.
  static NodeOrdering random_subset(std::vector<std::uint64_t> hosts,
                                    std::uint64_t num_fabric_hosts,
                                    std::uint64_t seed);

  /// §V sub-allocations: the hosts whose linear index is congruent to one of
  /// `residues` modulo  C = N / prod(w_i)  (the number of distinct
  /// sub-allocations), ranked compactly. A single residue class provably
  /// shifts congestion-free; unions are evaluated by the Table 3 bench.
  static NodeOrdering residue_allocation(const topo::Fabric& fabric,
                                         std::span<const std::uint32_t> residues);

  /// §II adversarial order: under D-Mod-K, the successor (rank+1) of every
  /// host in a leaf lives behind the *same* up-going port of that leaf, so a
  /// Ring/Shift(1) stage oversubscribes one link per leaf by up to K.
  /// Requires an RLFT (leaf up-port count == hosts per leaf).
  static NodeOrdering adversarial_ring(const topo::Fabric& fabric);

  /// Leaves permuted randomly, hosts within each leaf kept in order — what a
  /// batch scheduler does when it grants whole switches in arrival order.
  /// Preserves intra-leaf locality but not the inter-leaf arithmetic D-Mod-K
  /// wants.
  static NodeOrdering leaf_random(const topo::Fabric& fabric,
                                  std::uint64_t seed);

  /// Round-robin across leaves: rank r sits on leaf (r mod L), slot (r / L).
  /// A plausible "spread the job out" placement that maximally breaks the
  /// shift arithmetic.
  static NodeOrdering leaf_interleaved(const topo::Fabric& fabric);

  // --- application ---------------------------------------------------------

  /// Map a CPS stage over ranks to (src-host, dst-host) pairs. Ranks beyond
  /// num_ranks() are rejected.
  [[nodiscard]] std::vector<cps::Pair> map_stage(const cps::Stage& stage) const;

 private:
  std::vector<std::uint64_t> rank_to_host_;
  std::uint64_t num_fabric_hosts_;
};

/// Number of distinct §V sub-allocations of a fabric: N / prod(w_i).
[[nodiscard]] std::uint64_t num_sub_allocations(const topo::Fabric& fabric);

}  // namespace ftcf::order
