#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "check/certify.hpp"
#include "core/grouped_rd.hpp"
#include "topology/presets.hpp"

namespace ftcf::core {
namespace {

using topo::Fabric;

TEST(CollectivePlan, AuditsEveryCpsCongestionFreeOnRlft) {
  const Fabric fabric(topo::paper_cluster(128));
  const CollectivePlan plan(fabric);
  EXPECT_TRUE(plan.is_rlft());
  for (const cps::CpsKind kind : cps::kAllCpsKinds) {
    const cps::Sequence seq = plan.sequence_for(kind);
    const auto cert = plan.audit(seq);
    EXPECT_TRUE(cert.contention_free)
        << cps_name(kind) << " worst HSD "
        << check::summarize(cert).worst_stage_hsd;
  }
}

TEST(CollectivePlan, BidirectionalKindsUseGroupedSequences) {
  const Fabric fabric(topo::paper_cluster(128));
  const CollectivePlan plan(fabric);
  EXPECT_EQ(plan.sequence_for(cps::CpsKind::kRecursiveDoubling).name,
            "grouped-recursive-doubling");
  EXPECT_EQ(plan.sequence_for(cps::CpsKind::kRecursiveHalving).name,
            "grouped-recursive-halving");
  EXPECT_EQ(plan.sequence_for(cps::CpsKind::kShift).name, "shift");
}

void expect_same_stages(const cps::Sequence& a, const cps::Sequence& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_ranks, b.num_ranks);
  ASSERT_EQ(a.num_stages(), b.num_stages());
  for (std::size_t s = 0; s < a.num_stages(); ++s) {
    EXPECT_EQ(a.stages[s].role, b.stages[s].role) << "stage " << s;
    EXPECT_EQ(a.stages[s].pairs, b.stages[s].pairs) << "stage " << s;
  }
}

TEST(CollectivePlan, RecursiveHalvingIsTheGroupedHalvingSequence) {
  // One implementation: the plan's halving sequence is the generator's,
  // fold/unfold roles swapped and proxy pairs flipped, not a bare reversal.
  // K=18 levels are not powers of two, so fold and unfold stages exist.
  const Fabric fabric(topo::paper_cluster(324));
  const CollectivePlan plan(fabric);
  const cps::Sequence seq =
      plan.sequence_for(cps::CpsKind::kRecursiveHalving);
  expect_same_stages(seq, grouped_recursive_halving(fabric));
  ASSERT_FALSE(seq.stages.empty());
  EXPECT_EQ(seq.stages.front().role, cps::StageRole::kFold);
}

TEST(CollectivePlan, NaiveRecursiveDoublingWouldCongest) {
  // The contrast that motivates §VI: the same fabric and routing, but the
  // naive global-XOR sequence, is NOT congestion-free. The effect needs a
  // non-power-of-two arity (K=18 here): with all-power-of-two dimensions the
  // XOR pattern happens to align with D-Mod-K's digits.
  const Fabric fabric(topo::paper_cluster(324));
  const CollectivePlan plan(fabric);
  const auto naive = cps::recursive_doubling(fabric.num_hosts());
  const auto cert = plan.audit(naive);
  EXPECT_FALSE(cert.contention_free);
  EXPECT_GT(check::summarize(cert).worst_stage_hsd, 1u);
}

TEST(CollectivePlan, PartialJobOverResidueAllocation) {
  const Fabric fabric(topo::paper_cluster(128));
  const CollectivePlan plan(fabric);
  // Sub-allocation residue 0: hosts 0, 16, 32, ... (one per leaf pair),
  // ranked compactly, under the plan's D-Mod-K tables.
  std::vector<std::uint64_t> participants;
  for (std::uint64_t j = 0; j < fabric.num_hosts(); j += 16)
    participants.push_back(j);
  const auto job =
      order::NodeOrdering::compact_subset(participants, fabric.num_hosts());
  EXPECT_EQ(job.num_ranks(), 8u);
  const check::Certificate cert = check::certify_contention_freedom(
      fabric, plan.tables(), job, cps::shift(job.num_ranks()));
  EXPECT_TRUE(cert.contention_free);
  for (const check::StageWitness& w : cert.stages) EXPECT_EQ(w.max_hsd, 1u);
}

TEST(CollectivePlan, OrderingIsTopological) {
  const Fabric fabric(topo::fig4b_pgft16());
  const CollectivePlan plan(fabric);
  for (std::uint64_t r = 0; r < plan.num_ranks(); ++r)
    EXPECT_EQ(plan.ordering().host_of(r), r);
}

}  // namespace
}  // namespace ftcf::core
