// Shared channel-dependency machinery for the ftcf::check provers.
//
// Three analyses walk the same mathematical object — a dependency graph over
// the fabric's directed links ("channels") induced by the forwarding tables:
//   * the classic CDG deadlock proof (check/cdg.hpp) over switch-to-switch
//     channels;
//   * the per-virtual-lane CDGs (check/vl.hpp), which restrict the
//     destination set contributing dependencies to one lane at a time;
//   * the credit-loop prover (check/credit.hpp), whose universe is every
//     channel guarded by a finite credit pool in the packet simulator.
// This header factors the pieces they share: dense channel numbering,
// dependency generation (parallel over ftcf::par, concatenated in node
// order — sorted by construction, byte-identical at any thread count), CSR adjacency, iterative
// Tarjan SCC and concrete-cycle extraction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "routing/lft.hpp"

namespace ftcf::check {

inline constexpr std::uint32_t kNoChannel = static_cast<std::uint32_t>(-1);

/// Dense numbering of a subset of the fabric's directed links, ascending
/// in PortId (build_dependencies relies on that order).
struct ChannelIndex {
  std::vector<topo::PortId> channels;  ///< dense id -> PortId
  std::vector<std::uint32_t> dense;    ///< PortId -> dense id (kNoChannel = excluded)

  [[nodiscard]] std::size_t size() const noexcept { return channels.size(); }
  [[nodiscard]] bool empty() const noexcept { return channels.empty(); }
};

/// Switch-to-switch channels only — the classic CDG universe (host links
/// cannot take part in a dependency cycle: a host link is entered only by
/// its own host).
[[nodiscard]] ChannelIndex switch_channels(const topo::Fabric& fabric);

/// Channels whose receiving endpoint is a finite input buffer: `finite` is
/// indexed by PortId and ports with finite[p] == 0 are excluded. This is the
/// credit-loop universe; it includes host injection links when the packet
/// simulator grants them finite credit.
[[nodiscard]] ChannelIndex buffered_channels(
    const topo::Fabric& fabric, std::span<const std::uint8_t> finite);

struct DependencyOptions {
  /// When non-empty (size == num_hosts), only destinations d with
  /// lane_of_dest[d] == lane contribute dependencies (per-VL restriction).
  std::span<const std::uint32_t> lane_of_dest = {};
  std::uint32_t lane = 0;
  /// Also generate host-injection dependencies: the channel a host injects
  /// over depends on the out-channel its leaf switch forwards to, for every
  /// destination the host can address. Host channels must then be part of
  /// the ChannelIndex (see buffered_channels).
  bool host_injections = false;
  /// Label for the parallel region (profiling/timing).
  const char* label = "check.deps";
};

/// All distinct dependencies, packed (from_dense << 32 | to_dense) and
/// sorted ascending — identical for any thread count. Generated per source
/// node in parallel and concatenated in NodeId order with no global sort:
/// a ChannelIndex numbers channels in PortId order, a node's ports are
/// contiguous, and each node emits its pairs in ascending order, so the
/// concatenation is sorted by construction (host-injection lists first, as
/// hosts precede switches). The build asserts that invariant.
[[nodiscard]] std::vector<std::uint64_t> build_dependencies(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const DependencyOptions& options = {});

/// Dependencies a single destination's table entries contribute, sorted
/// ascending (the incremental unit of the greedy VL-assignment search).
[[nodiscard]] std::vector<std::uint64_t> destination_dependencies(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, std::uint64_t dest);

/// build_dependencies generalized from a forwarding function to the
/// adaptive routing relation (route::adaptive_candidates): a dependency
/// A -> B exists when *some* candidate out-channel A of a (switch, dest)
/// pair reaches a switch where B is *some* candidate for the same
/// destination. Packed/sorted like build_dependencies and equally
/// thread-count independent. The Dally–Seitz criterion over this union
/// graph proves deadlock freedom for every routing function — and every
/// per-packet dynamic choice — the relation admits.
[[nodiscard]] std::vector<std::uint64_t> build_relation_dependencies(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const char* label = "check.deps.relation");

/// Compressed adjacency over dense channel ids; successor lists ascending.
struct ChannelGraph {
  std::vector<std::uint32_t> offsets;  ///< size num_channels + 1
  std::vector<std::uint32_t> targets;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
};

[[nodiscard]] ChannelGraph build_graph(std::size_t num_channels,
                                       const std::vector<std::uint64_t>& deps);

/// Iterative Tarjan SCC summary: the number of cyclic SCCs and the members
/// of the first one found (empty when the graph is acyclic).
struct SccSummary {
  std::uint64_t cyclic_sccs = 0;
  std::vector<std::uint32_t> first_cycle_members;
};

[[nodiscard]] SccSummary find_cyclic_sccs(const ChannelGraph& graph);

/// Walk inside a cyclic SCC following the smallest in-SCC successor until a
/// node repeats; the slice from its first visit is a concrete cycle.
[[nodiscard]] std::vector<std::uint32_t> extract_cycle(
    const ChannelGraph& graph, const std::vector<std::uint32_t>& scc);

/// True when the edges `deps` (packed like build_dependencies) over
/// `num_channels` nodes contain no directed cycle. O(V + E) colored DFS;
/// used by the incremental VL-assignment search where running full Tarjan
/// per candidate would be wasteful.
[[nodiscard]] bool dependencies_acyclic(std::size_t num_channels,
                                        const std::vector<std::uint64_t>& deps);

/// True when `port` sources an up-going link of its node.
[[nodiscard]] bool is_up_channel(const topo::Fabric& fabric, topo::PortId port);

/// Render one directed link with both endpoints, e.g.
/// "S1_0[port 4] -> S2_0[port 1]".
[[nodiscard]] std::string channel_to_string(const topo::Fabric& fabric,
                                            topo::PortId port);

}  // namespace ftcf::check
