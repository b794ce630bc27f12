// CollectivePlan: the paper's recipe as one object.
//
// Given a fat-tree, produce the three coordinated ingredients that make MPI
// global collectives congestion-free (§I): D-Mod-K routing tables, the
// topology-aware MPI node order, and — per collective — a permutation
// sequence that the routing serves without contention (the native CPS for
// unidirectional collectives, the §VI grouped sequence for bidirectional
// ones).
//
// Quickstart:
//
//   topo::Fabric fabric(topo::paper_cluster(324));
//   core::CollectivePlan plan(fabric);
//   auto seq = plan.sequence_for(cps::CpsKind::kShift);
//   auto audit = plan.audit(seq);          // audit.congestion_free == true
#pragma once

#include "analysis/hsd.hpp"
#include "core/grouped_rd.hpp"
#include "cps/generators.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"

namespace ftcf::core {

class CollectivePlan {
 public:
  /// Plan for a whole-fabric job. Warns (via the returned flags, not I/O)
  /// when the fabric is not an RLFT, where the guarantees are proven.
  explicit CollectivePlan(const topo::Fabric& fabric);

  [[nodiscard]] const topo::Fabric& fabric() const noexcept { return *fabric_; }
  [[nodiscard]] const route::ForwardingTables& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const order::NodeOrdering& ordering() const noexcept {
    return ordering_;
  }
  [[nodiscard]] std::uint64_t num_ranks() const noexcept {
    return ordering_.num_ranks();
  }
  [[nodiscard]] bool is_rlft() const noexcept {
    return fabric_->spec().is_rlft();
  }

  /// The congestion-free sequence for a CPS kind: unidirectional kinds keep
  /// their native sequence; recursive doubling/halving are replaced by the
  /// grouped §VI construction (which requires uniform occupancy — throws
  /// util::SpecError otherwise).
  [[nodiscard]] cps::Sequence sequence_for(cps::CpsKind kind) const;

  struct Audit {
    bool congestion_free = false;
    analysis::SequenceMetrics metrics;
  };

  /// Route every stage of `seq` under this plan's ordering and tables and
  /// measure the hot-spot degrees.
  [[nodiscard]] Audit audit(const cps::Sequence& seq) const;

 private:
  const topo::Fabric* fabric_;
  route::ForwardingTables tables_;
  order::NodeOrdering ordering_;
};

}  // namespace ftcf::core
