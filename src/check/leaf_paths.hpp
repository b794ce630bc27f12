// The (destination, entry leaf) route cache both contention certifiers
// count from.
//
// A flow leaves its source host through one injection link into its entry
// leaf, then follows the LFT column of its destination. Every flow entering
// the same leaf towards the same destination shares that switch path, so a
// sequence over n ranks placed on L leaves has at most L·n distinct paths,
// however many stages it has. LeafPaths walks each path once into one flat
// pool (per path a status word, then a fixed-stride slot of links); the
// stage fold and the blame scan then read the pool instead of walking the
// tables once per flow and stage.
//
// Construction runs the first two passes: mark the (destination, entry
// leaf) key of every flow (serial, in rank space), then walk each key once
// (over ftcf::par). Keys index a dense (destination, leaf) table, or a
// sorted key list when the sequence is too sparse to fill one, so a few
// flows on a large fabric do not pay for every leaf of every row. The
// third pass, fold_stage() and colliding() per stage, may run from any
// number of threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/hsd.hpp"
#include "check/certify.hpp"

namespace ftcf::check::detail {

class LeafPaths {
 public:
  static constexpr std::uint32_t kNoPath = static_cast<std::uint32_t>(-1);
  /// (destination, leaf) table slots per flow up to which the dense table
  /// is used; sparser sequences sort their keys. Certifying Shift prefixes
  /// in random order on the 1944- and 11664-node RLFTs, the sorted list
  /// takes 1.1-3x longer below about 20 slots per flow and up to 3x
  /// shorter above about 80 (docs/PERF.md).
  static constexpr std::uint64_t kDenseSlotsPerPair = 32;

  /// Where one flow enters the switch fabric.
  struct Entry {
    std::uint32_t leaf = 0;                    ///< entry leaf ordinal
    topo::PortId inject = topo::kInvalidPort;  ///< the source's up link
  };

  /// Outcome of one leaf walk. A stranded walk keeps the links it took up
  /// to the unprogrammed entry: blame evidence counts that prefix.
  struct Walk {
    bool routable = false;
    std::uint32_t length = 0;
  };

  /// Cache every route of `sequence`, whose flows are in the rank space of
  /// `ordering`. Throws as NodeOrdering::host_of on a rank outside the
  /// ordering, and as route::require_delivered on a route that loops or
  /// reaches a foreign host.
  LeafPaths(const topo::Fabric& fabric, const route::ForwardingTables& tables,
            const order::NodeOrdering& ordering,
            const cps::Sequence& sequence);

  /// Entry leaf and injection link of rank `src`'s flow to host `dst`.
  [[nodiscard]] Entry entry(std::uint64_t src,
                            std::uint64_t dst) const noexcept {
    return entries_[ups_ == 1 ? src : src * ups_ + dst % ups_];
  }
  [[nodiscard]] std::uint64_t host(std::uint64_t rank) const noexcept {
    return hosts_[rank];
  }

  [[nodiscard]] std::uint32_t num_leaves() const noexcept {
    return num_leaves_;
  }
  /// True when some flow targets host `dst`.
  [[nodiscard]] bool targeted(std::uint64_t dst) const noexcept {
    return row_of_[dst] != kNoRow;
  }
  /// Path of key (dst host, leaf); kNoPath when no flow enters `leaf`
  /// towards `dst`.
  [[nodiscard]] std::uint32_t path(std::uint64_t dst,
                                   std::uint32_t leaf) const noexcept;
  [[nodiscard]] bool routable(std::uint32_t path) const noexcept {
    return (pool_[std::size_t{path} * width_] & kRoutable) != 0;
  }
  /// The path's links from its entry leaf onward (the walked prefix when
  /// stranded).
  [[nodiscard]] std::span<const topo::PortId> links(
      std::uint32_t path) const noexcept {
    const std::uint32_t* slot = pool_.data() + std::size_t{path} * width_;
    return {slot + 1, *slot & ~kRoutable};
  }
  /// Link capacity of one path: a host walk takes the injection link plus
  /// at most route::max_route_links() more.
  [[nodiscard]] std::size_t stride() const noexcept { return width_ - 1; }

  /// Walk from entry leaf `leaf` towards host `dst` into `out` (stride()
  /// slots), stopping at the total length a host walk allows.
  [[nodiscard]] Walk walk(std::uint64_t dst, std::uint32_t leaf,
                          topo::PortId* out) const;
  /// Replace a cached path with a fresh walk (re-certification).
  void store(std::uint32_t path, Walk walk, const topo::PortId* links);

  /// Pass 3: count one stage's routed flows (injection link plus cached
  /// path) into `loads` and fold its witness; `hot` receives the hottest
  /// link. The shape is left to the caller.
  [[nodiscard]] StageWitness fold_stage(std::span<const cps::Pair> pairs,
                                        analysis::StageLoads& loads,
                                        topo::PortId& hot) const;

  /// Blame evidence for a stage whose witness is `w`: the first
  /// kMaxCollidingShown flows, in stage-pair order and in host space, whose
  /// injection link or cached path (a stranded flow's prefix included)
  /// crosses `link`.
  [[nodiscard]] std::vector<CollidingFlow> colliding(
      std::span<const cps::Pair> pairs, const StageWitness& w,
      topo::PortId link) const;

  [[nodiscard]] std::span<const analysis::LinkClass> classes() const noexcept {
    return classes_;
  }

 private:
  static constexpr std::uint32_t kNoRow = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kRoutable = 1u << 31;

  static std::uint64_t key(std::uint64_t dst, std::uint32_t leaf) noexcept {
    return dst << 32 | leaf;
  }
  /// Path of a sparse key present in keys_.
  [[nodiscard]] std::uint32_t sparse_path(std::uint64_t key) const noexcept;
  /// Path of rank `src`'s flow to rank `dst`.
  [[nodiscard]] std::uint32_t flow_path(std::uint64_t src, std::uint64_t dst,
                                        Entry& in) const noexcept {
    in = entry(src, ups_ == 1 ? 0 : hosts_[dst]);
    return dense_ ? slots_[row_base_[dst] + in.leaf]
                  : sparse_path(key(hosts_[dst], in.leaf));
  }

  const topo::Fabric* fabric_;
  const route::ForwardingTables* tables_;
  std::uint32_t num_leaves_ = 0;
  std::uint32_t ups_ = 1;    ///< up ports per host
  std::size_t width_ = 0;    ///< pool words per path: status, then links
  bool dense_ = true;        ///< slots_ table, else the sorted keys_
  std::vector<analysis::LinkClass> classes_;
  std::vector<std::uint64_t> hosts_;  ///< rank -> host
  /// entries_[rank * ups_ + u]: the rank's host leaving through up port u.
  std::vector<Entry> entries_;
  /// row_of_[host] indexes a num_leaves_ block of slots_ (kNoRow: no flow
  /// targets the host; any other value when sparse); row_base_[rank]
  /// caches it as a slots_ offset.
  std::vector<std::uint32_t> row_of_;
  std::vector<std::size_t> row_base_;
  std::vector<std::uint32_t> slots_;  ///< dense: path id per (row, leaf)
  std::vector<std::uint64_t> keys_;   ///< key per path, ascending
  /// width_ words per path: length | kRoutable, then the links.
  std::vector<std::uint32_t> pool_;
};

}  // namespace ftcf::check::detail
