#include "core/plan.hpp"

namespace ftcf::core {

namespace {
route::ForwardingTables make_tables(const topo::Fabric& fabric) {
  return route::DModKRouter{}.compute(fabric);
}
}  // namespace

CollectivePlan::CollectivePlan(const topo::Fabric& fabric)
    : fabric_(&fabric),
      tables_(make_tables(fabric)),
      ordering_(order::NodeOrdering::topology(fabric)) {}

CollectivePlan::CollectivePlan(const topo::Fabric& fabric,
                               std::vector<std::uint64_t> participants)
    : fabric_(&fabric),
      tables_(make_tables(fabric)),
      ordering_(order::NodeOrdering::compact_subset(participants,
                                                    fabric.num_hosts())),
      participants_(std::move(participants)) {
  // compact_subset sorted its copy; keep ours aligned with rank order.
  participants_->assign(ordering_.hosts().begin(), ordering_.hosts().end());
}

cps::Sequence CollectivePlan::sequence_for(cps::CpsKind kind) const {
  const std::uint64_t p = num_ranks();
  switch (kind) {
    case cps::CpsKind::kRecursiveDoubling:
      if (participants_)
        return grouped_recursive_doubling(*fabric_, *participants_);
      return grouped_recursive_doubling(*fabric_);
    case cps::CpsKind::kRecursiveHalving:
      if (participants_)
        return grouped_recursive_halving(*fabric_, *participants_);
      return grouped_recursive_halving(*fabric_);
    default:
      return cps::generate(kind, p);
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
