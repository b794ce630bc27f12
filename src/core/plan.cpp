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

check::Certificate CollectivePlan::audit(const cps::Sequence& seq) const {
  return check::certify_contention_freedom(*fabric_, tables_, ordering_, seq);
}

}  // namespace ftcf::core
