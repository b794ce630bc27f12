// Hot-Spot-Degree analysis (paper §II and §VII; the ibdm-based tool).
//
// Given a topology, routing tables and a traffic stage (a set of src->dst
// host flows), count the flows crossing every directed link. The Hot-Spot
// Degree of a link is that count; the HSD of a stage is the maximum over all
// links; the HSD of a collective is the average of the per-stage maxima
// (matching the paper: "the average of the maximal hot-spot-degree of all
// links, over all stages of the collective algorithm"). HSD == 1 everywhere
// means congestion-free.
//
// Thread safety: HsdAnalyzer holds only pointers to the (const) fabric and
// tables; all per-call state lives in an explicit Workspace, so one analyzer
// may be shared by any number of threads as long as each thread brings its
// own Workspace (the workspace-less overloads allocate a fresh one per
// call). analyze_sequence and random_order_hsd_ensemble fan out over the
// ftcf::par default thread count and merge results in stage/trial order, so
// their output is byte-identical for every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cps/stage.hpp"
#include "ordering/ordering.hpp"
#include "routing/trace.hpp"
#include "util/stats.hpp"

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

struct SequenceMetrics {
  double avg_max_hsd = 0.0;              ///< the paper's headline metric
  std::uint32_t worst_stage_hsd = 0;     ///< max over stages
  std::uint32_t worst_up_hsd = 0;
  std::uint32_t worst_down_hsd = 0;
  std::uint64_t unroutable_flows = 0;    ///< total over stages (degraded)
  std::vector<std::uint32_t> per_stage_max;
};

class HsdAnalyzer {
 public:
  /// Reusable per-call state (per-port counters and the route-walk buffer).
  /// One per thread: a Workspace must not be used by two concurrent
  /// analyze_stage calls, but may be reused across calls and analyzers.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class HsdAnalyzer;
    StageLoads loads_;
    std::vector<topo::PortId> walked_;
  };

  HsdAnalyzer(const topo::Fabric& fabric,
              const route::ForwardingTables& tables);

  /// Degraded-fabric mode: flows that hit an unprogrammed LFT entry are
  /// counted in `unroutable_flows` and contribute no link load, instead of
  /// raising an error. Default off — on complete tables an unprogrammed
  /// entry is a bug and should fail loudly.
  void set_tolerate_unroutable(bool tolerate) noexcept {
    tolerate_unroutable_ = tolerate;
  }

  /// Analyze one stage given flows already in host-index space, using the
  /// caller's workspace (race-free under concurrent calls with distinct
  /// workspaces). When `link_loads` is non-null it receives the per-port
  /// flow counts (indexed by PortId).
  [[nodiscard]] StageMetrics analyze_stage(
      std::span<const cps::Pair> host_flows, Workspace& workspace,
      std::vector<std::uint32_t>* link_loads = nullptr) const;

  /// Convenience overload with a private, freshly-allocated workspace.
  /// Hot loops should hold a Workspace and use the overload above.
  [[nodiscard]] StageMetrics analyze_stage(
      std::span<const cps::Pair> host_flows,
      std::vector<std::uint32_t>* link_loads = nullptr) const;

  /// Analyze a full CPS under a node ordering. Stages are analyzed in
  /// parallel (ftcf::par) with one workspace per worker; metrics are folded
  /// in stage order, so the result is identical for any thread count.
  [[nodiscard]] SequenceMetrics analyze_sequence(
      const cps::Sequence& seq, const order::NodeOrdering& ordering) const;

  [[nodiscard]] const topo::Fabric& fabric() const noexcept { return *fabric_; }

 private:
  const topo::Fabric* fabric_;
  const route::ForwardingTables* tables_;
  std::vector<LinkClass> classes_;
  bool tolerate_unroutable_ = false;
};

/// Fig. 3 ensemble: the sequence's avg-max-HSD under `trials` random
/// orderings; the returned accumulator carries mean/min/max across trials.
/// Trial t draws its ordering from util::derive_seed(seed, t), so ensembles
/// for different base seeds share no trials. Trials run in parallel in
/// fixed blocks whose per-block accumulators merge in block order — the
/// statistics are byte-identical for any thread count.
[[nodiscard]] util::Accumulator random_order_hsd_ensemble(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const cps::Sequence& seq, std::uint32_t trials, std::uint64_t seed);

}  // namespace ftcf::analysis
