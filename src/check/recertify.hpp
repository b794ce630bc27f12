// Incremental re-certification under fabric churn.
//
// certify_contention_freedom walks every (destination, entry leaf) path once
// and folds every stage's loads from them; under churn only the flows whose
// destination column changed can load different links. IncrementalCertifier
// keeps that same path cache (detail::LeafPaths) plus, per stage, the live
// per-link flow counts, load histograms (all/up/down link classes) and the
// stage's cached violation. A route::RepairDelta names exactly the dirtied
// columns; update() subtracts the affected flows' old cached paths,
// re-walks them against the repaired tables, re-derives the per-stage
// witnesses from the histograms and re-blames only the stages it touched —
// so the certificate() it maintains is field-identical (and its JSON
// byte-identical) to a from-scratch certify over the same tables, at a
// fraction of the cost. The exchange rate is measured by bench/churn_bench
// and pinned by the differential oracle in tests/churn.
//
// Row-fill fast path: a switch repair that only fills pristine rows touches
// flow paths only when the revived switch is a leaf (flows inject through
// it); no path ever enters a revived *upper* switch for a fully pristine
// destination, because no surviving entry pointed into it while it was dead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/certify.hpp"
#include "check/leaf_paths.hpp"
#include "routing/incremental.hpp"

namespace ftcf::check {

/// What one re-certification pass did, plus the post-event verdict.
struct CertificateDelta {
  bool applied = false;               ///< some flow was re-walked
  std::uint64_t flows_rewalked = 0;   ///< flow paths subtracted + re-added
  std::uint64_t stages_touched = 0;   ///< stages with >= 1 re-walked flow
  std::uint64_t stages_changed = 0;   ///< stages whose witness row changed
  bool contention_free = false;       ///< post-event verdict
};

/// Streaming certifier over live forwarding tables. Construction runs one
/// full certification; each update() consumes a route::RepairDelta produced
/// against the *same* tables object and costs O(changed columns), not
/// O(all flows). certificate() is at every point equal to
/// certify_contention_freedom(fabric, tables, ordering, sequence).
class IncrementalCertifier {
 public:
  /// `tables` must outlive this object and is read again on every update —
  /// pass the live tables owned by route::IncrementalRepair.
  IncrementalCertifier(const topo::Fabric& fabric,
                       const route::ForwardingTables& tables,
                       const order::NodeOrdering& ordering,
                       const cps::Sequence& sequence);

  /// Consume one churn event's routing delta (the tables have already been
  /// repaired in place). Re-walks only the affected flows.
  CertificateDelta update(const route::RepairDelta& delta);

  /// Assemble the current certificate from the maintained state.
  [[nodiscard]] Certificate certificate() const;

 private:
  struct FlowRef {
    std::uint32_t stage = 0;
    std::uint32_t src = 0;      ///< source rank
    std::uint32_t ordinal = 0;  ///< entry leaf ordinal
    std::uint32_t pair = 0;     ///< index into the stage's pair list
  };
  struct StageState {
    StageShape shape = StageShape::kEmpty;
    std::uint64_t num_flows = 0;          ///< static: src != dst pairs
    std::vector<cps::Pair> pairs;         ///< rank space, stage-pair order
    std::vector<std::uint32_t> loads;     ///< per PortId
    std::uint64_t unroutable = 0;
    std::uint64_t links_loaded = 0;
    /// hist[k][v] = links of class k (0 all, 1 up, 2 down) with load v >= 1.
    std::vector<std::uint32_t> hist[3];
    std::uint32_t max_load[3] = {0, 0, 0};
    std::vector<topo::PortId> hot_pids;   ///< sorted; load >= 2
    /// Cached violation (when max_load[0] > 1), without its blamed_rule:
    /// it changes only when some flow of this stage changes path.
    StageBlame blame;
  };

  void bump(StageState& stage, topo::PortId pid, int dir);
  void apply_flow(StageState& stage, bool routable,
                  std::span<const topo::PortId> links, topo::PortId inject,
                  int dir);
  [[nodiscard]] topo::PortId hottest(const StageState& stage) const;
  [[nodiscard]] StageWitness witness(const StageState& stage) const;
  void refresh_blame(std::size_t stage);
  [[nodiscard]] std::vector<StageBlame> build_blames() const;
  void index_path_links(std::uint64_t dest, std::uint32_t ordinal,
                        std::span<const topo::PortId> links, bool add);
  [[nodiscard]] std::vector<CollidingFlow> collect_colliding(
      std::size_t stage, topo::PortId hot) const;

  const topo::Fabric* fabric_;
  const route::ForwardingTables* tables_;
  std::uint64_t num_ranks_ = 0;
  std::string sequence_name_;
  detail::LeafPaths paths_;
  std::vector<StageState> stages_;
  std::vector<std::vector<FlowRef>> flows_by_dest_;
  /// flow_offsets_[dest][s] .. [s+1]: the flows_by_dest_[dest] slice of
  /// stage s (flows_by_dest_ is built stage-ascending, pair-ascending).
  std::vector<std::vector<std::uint32_t>> flow_offsets_;
  /// link_paths_[pid]: sorted packed (dest << 32 | leaf-ordinal) keys of the
  /// cached paths crossing that switch link — the blame inversion: colliding
  /// flows of a hot link resolve by lookup instead of an all-flow rescan.
  std::vector<std::vector<std::uint64_t>> link_paths_;
  Diagnostics base_lints_;  ///< fabric/ordering/sequence lints (static)
};

}  // namespace ftcf::check
