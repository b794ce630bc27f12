// Hot-Spot-Degree analysis (paper §II and §VII; the ibdm-based tool).
//
// Given a topology, routing tables and a traffic stage (a set of src->dst
// host flows), count the flows crossing every directed link. The Hot-Spot
// Degree of a link is that count; the HSD of a stage is the maximum over all
// links. HSD == 1 everywhere means congestion-free.
//
// HsdAnalyzer::analyze_stage is the per-flow reference: it walks every flow
// through the tables with route::walk_lft. Tests compare the certifier
// against it, and figures read per-port loads from it. Whole-sequence
// questions (the paper's average of per-stage maxima, worst stage, stranded
// flows) are answered by check::certify_contention_freedom and
// check::summarize, which count from cached leaf paths. LinkClass and
// StageLoads are the per-link bookkeeping both share.
//
// Thread safety: HsdAnalyzer holds only pointers to the (const) fabric and
// tables and allocates its per-call state, so one analyzer may be shared by
// any number of threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cps/stage.hpp"
#include "routing/trace.hpp"

namespace ftcf::analysis {

struct StageMetrics {
  std::uint32_t max_hsd = 0;         ///< max flows on any directed link
  std::uint32_t max_up_hsd = 0;      ///< max over up-going links (Theorem 1)
  std::uint32_t max_down_hsd = 0;    ///< max over down-going links (Theorem 2)
  std::uint32_t max_host_hsd = 0;    ///< max over NIC injection/delivery links
  std::uint64_t num_flows = 0;       ///< routed flows (src != dst)
  std::uint64_t unroutable_flows = 0;  ///< flows skipped (degraded tables)
  std::uint64_t links_loaded = 0;    ///< directed links carrying >= 1 flow
  topo::PortId hottest_port = topo::kInvalidPort;  ///< lowest on ties
};

/// Which per-class HSD maximum a directed link feeds.
enum class LinkClass : std::uint8_t {
  kInjection,  ///< host NIC up link
  kUp,         ///< switch up-going port (Theorem 1)
  kDown,       ///< switch down-going port into a switch (Theorem 2)
  kDelivery,   ///< leaf port into a host: Theorem 2 and a NIC link
};

/// The LinkClass of every port, indexed by PortId.
[[nodiscard]] std::vector<LinkClass> link_classes(const topo::Fabric& fabric);

/// One stage's per-link flow counts plus the links they touched, so folding
/// and resetting cost O(loaded links) instead of O(all ports).
class StageLoads {
 public:
  /// Size for `num_ports` links and drop every count of the previous stage
  /// (also one abandoned midway by an exception).
  void reset(std::size_t num_ports);
  void add(topo::PortId pid) {
    if (loads_[pid]++ == 0) touched_.push_back(pid);
  }
  [[nodiscard]] std::uint32_t load(topo::PortId pid) const {
    return loads_[pid];
  }
  /// Loaded links, in first-touch order.
  [[nodiscard]] std::span<const topo::PortId> touched() const noexcept {
    return touched_;
  }
  /// The per-class maxima, links_loaded and the hottest link (the lowest
  /// PortId attaining the maximum). Flow counts are left to the caller.
  [[nodiscard]] StageMetrics fold(std::span<const LinkClass> classes) const;

 private:
  std::vector<std::uint32_t> loads_;
  std::vector<topo::PortId> touched_;
};

class HsdAnalyzer {
 public:
  HsdAnalyzer(const topo::Fabric& fabric,
              const route::ForwardingTables& tables);

  /// Analyze one stage given flows already in host-index space. A flow that
  /// hits an unprogrammed LFT entry is counted in `unroutable_flows` and
  /// loads no link, as in the certifier. When `link_loads` is non-null it
  /// receives the per-port flow counts (indexed by PortId).
  [[nodiscard]] StageMetrics analyze_stage(
      std::span<const cps::Pair> host_flows,
      std::vector<std::uint32_t>* link_loads = nullptr) const;

 private:
  const topo::Fabric* fabric_;
  const route::ForwardingTables* tables_;
  std::vector<LinkClass> classes_;
};

}  // namespace ftcf::analysis
