#include "core/plan.hpp"

namespace ftcf::core {

CollectivePlan::CollectivePlan(const topo::Fabric& fabric)
    : fabric_(&fabric),
      tables_(route::DModKRouter{}.compute(fabric)),
      ordering_(order::NodeOrdering::topology(fabric)) {}

cps::Sequence CollectivePlan::sequence_for(cps::CpsKind kind) const {
  switch (kind) {
    case cps::CpsKind::kRecursiveDoubling:
      return grouped_recursive_doubling(*fabric_);
    case cps::CpsKind::kRecursiveHalving:
      return grouped_recursive_halving(*fabric_);
    default:
      return cps::generate(kind, num_ranks());
  }
}

CollectivePlan::Audit CollectivePlan::audit(const cps::Sequence& seq) const {
  const analysis::HsdAnalyzer analyzer(*fabric_, tables_);
  Audit result;
  result.metrics = analyzer.analyze_sequence(seq, ordering_);
  result.congestion_free = result.metrics.worst_stage_hsd <= 1;
  return result;
}

}  // namespace ftcf::core
