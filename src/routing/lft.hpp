// Linear Forwarding Tables, as programmed into InfiniBand switches by a
// subnet manager: for every switch, a dense map destination-host -> out-port.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/fabric.hpp"

namespace ftcf::route {

/// Forwarding state for one fabric. Indexed by switch NodeId and destination
/// host index; the stored value is a port index *within the switch*.
class ForwardingTables {
 public:
  explicit ForwardingTables(const topo::Fabric& fabric);

  /// Out-port index of `sw` towards destination host j. Switches never
  /// forward towards hosts that are unreachable, so this is total.
  [[nodiscard]] std::uint32_t out_port(topo::NodeId sw, std::uint64_t dest) const;

  /// The (switch, destination) entry as stored: its out-port index, or
  /// kUnroutedPort when it was never programmed.
  [[nodiscard]] std::uint32_t entry(topo::NodeId sw, std::uint64_t dest) const;

  /// Every stored entry of `sw`, indexed by destination host: one validated
  /// lookup for a scan that would otherwise call entry() per destination.
  [[nodiscard]] std::span<const std::uint32_t> row(topo::NodeId sw) const;

  /// row() of every switch, indexed by NodeId (hosts get an empty span):
  /// whole-table scans validate each switch once instead of every entry.
  [[nodiscard]] std::vector<std::span<const std::uint32_t>> rows() const;

  void set_out_port(topo::NodeId sw, std::uint64_t dest, std::uint32_t port);

  /// True when the (switch, destination) entry has been programmed.
  [[nodiscard]] bool has_entry(topo::NodeId sw, std::uint64_t dest) const;

  /// Revert the (switch, destination) entry to unprogrammed. The repair
  /// engine uses this when a path component dies out from under an entry.
  void clear_entry(topo::NodeId sw, std::uint64_t dest);

  /// Entry-wise equality over the same fabric — the incremental-repair
  /// differential oracle's definition of "identical tables".
  friend bool operator==(const ForwardingTables& a, const ForwardingTables& b) {
    return a.table_ == b.table_;
  }

  [[nodiscard]] const topo::Fabric& fabric() const noexcept { return *fabric_; }

  /// True once every (switch, destination) entry has been programmed.
  [[nodiscard]] bool complete() const noexcept;

 private:
  [[nodiscard]] std::size_t slot(topo::NodeId sw, std::uint64_t dest) const;

  const topo::Fabric* fabric_;
  std::uint64_t num_hosts_;
  topo::NodeId first_switch_;
  std::vector<std::uint32_t> table_;  ///< [switch-ordinal * N + dest]
};

inline constexpr std::uint32_t kUnroutedPort = static_cast<std::uint32_t>(-1);

}  // namespace ftcf::route
