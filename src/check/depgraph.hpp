// Shared channel-dependency machinery for the ftcf::check deadlock provers.
//
// Every deadlock verdict in ftcf::check is the Dally–Seitz criterion over a
// dependency graph on the fabric's switch-to-switch directed links
// ("channels"). The graphs differ only in which out-ports a packet for a
// destination may take at each switch:
//   * the deterministic tables (analyze_cdg): the one programmed entry;
//   * the same tables restricted to one virtual lane's destinations
//     (analyze_cdg_per_vl);
//   * the adaptive routing relation (analyze_adaptive_cdg,
//     route::adaptive_candidates): the entry on descents, any up port on
//     ascents.
// One per-switch builder serves all three (parallel over ftcf::par,
// concatenated in switch order — sorted by construction, byte-identical at
// any thread count), and one verdict tail (analyze_dependencies) turns the
// dependencies into counts, down->up turns, SCCs and a witness cycle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/cdg.hpp"
#include "routing/lft.hpp"

namespace ftcf::check {

inline constexpr std::uint32_t kNoChannel = static_cast<std::uint32_t>(-1);

/// Dense numbering of the fabric's switch-to-switch directed links,
/// ascending in PortId (the dependency builders rely on that order).
struct ChannelIndex {
  std::vector<topo::PortId> channels;  ///< dense id -> PortId
  std::vector<std::uint32_t> dense;    ///< PortId -> dense id (kNoChannel = excluded)

  [[nodiscard]] std::size_t size() const noexcept { return channels.size(); }
};

/// Switch-to-switch channels only — the CDG universe (host links cannot
/// take part in a dependency cycle: a host link is entered only by its own
/// host, and a delivery link ends in the host sink).
[[nodiscard]] ChannelIndex switch_channels(const topo::Fabric& fabric);

struct DependencyOptions {
  /// When non-empty (size == num_hosts), only destinations d with
  /// lane_of_dest[d] == lane contribute dependencies (per-VL restriction).
  std::span<const std::uint32_t> lane_of_dest = {};
  std::uint32_t lane = 0;
  /// Label for the parallel region (profiling/timing).
  const char* label = "check.deps";
};

/// All distinct dependencies, packed (from_dense << 32 | to_dense) and
/// sorted ascending — identical for any thread count. Generated per source
/// switch in parallel and concatenated in NodeId order with no global sort:
/// a ChannelIndex numbers channels in PortId order, a switch's ports are
/// contiguous, and each switch emits its pairs in ascending order, so the
/// concatenation is sorted by construction. The build asserts that
/// invariant.
[[nodiscard]] std::vector<std::uint64_t> build_dependencies(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const DependencyOptions& options = {});

/// Dependencies a single destination's table entries contribute, sorted
/// ascending (the incremental unit of the greedy VL-assignment search).
/// `rows` is ForwardingTables::rows(), built once for every destination.
[[nodiscard]] std::vector<std::uint64_t> destination_dependencies(
    const topo::Fabric& fabric,
    const std::vector<std::span<const std::uint32_t>>& rows,
    const ChannelIndex& ci, std::uint64_t dest);

/// build_dependencies generalized from a forwarding function to the
/// adaptive routing relation (route::adaptive_candidates): a dependency
/// A -> B exists when *some* candidate out-channel A of a (switch, dest)
/// pair reaches a switch where B is *some* candidate for the same
/// destination. Same builder, so packed/sorted like build_dependencies and
/// equally thread-count independent. The Dally–Seitz criterion over this
/// union graph proves deadlock freedom for every routing function — and
/// every per-packet dynamic choice — the relation admits.
[[nodiscard]] std::vector<std::uint64_t> build_relation_dependencies(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const ChannelIndex& ci, const char* label = "check.deps.relation");

/// The verdict tail every CDG analysis shares: counts, down->up turns,
/// cyclic SCCs and one concrete witness cycle of the graph `deps` (packed
/// like build_dependencies) over the channels of `ci`.
[[nodiscard]] CdgAnalysis analyze_dependencies(
    const topo::Fabric& fabric, const ChannelIndex& ci,
    const std::vector<std::uint64_t>& deps);

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

/// Full SCC partition of a channel graph (iterative Tarjan): component id
/// per node, numbered in the order Tarjan closes them, plus member counts.
/// A component is cyclic iff it has more than one member — a CDG has no
/// self-loops, since a dependency always joins two different switches.
struct SccPartition {
  std::vector<std::uint32_t> comp;
  std::vector<std::uint32_t> comp_size;
};

[[nodiscard]] SccPartition scc_partition(const ChannelGraph& graph);

/// True when the edges `deps` (packed like build_dependencies) over
/// `num_channels` nodes contain no directed cycle. O(V + E) colored DFS
/// that stops at the first back edge; used by the incremental
/// VL-assignment search where a full SCC partition per candidate would be
/// wasteful.
[[nodiscard]] bool dependencies_acyclic(std::size_t num_channels,
                                        const std::vector<std::uint64_t>& deps);

/// Render one directed link with both endpoints, e.g.
/// "S1_0[port 4] -> S2_0[port 1]".
[[nodiscard]] std::string channel_to_string(const topo::Fabric& fabric,
                                            topo::PortId port);

}  // namespace ftcf::check
