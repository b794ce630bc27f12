#include "core/grouped_rd.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include <numeric>

#include "cps/classify.hpp"
#include "topology/presets.hpp"
#include "util/error.hpp"

namespace ftcf::core {
namespace {

using topo::Fabric;
using topo::PgftSpec;

TEST(GroupedRd, PowerOfTwoLevelsHaveOnlyExchanges) {
  const Fabric fabric(topo::fig4b_pgft16());  // m1 = m2 = 4
  const cps::Sequence seq = grouped_recursive_doubling(fabric);
  // log2(4) stages within leaves + log2(4) across leaves.
  EXPECT_EQ(seq.num_stages(), 4u);
  for (const cps::Stage& st : seq.stages)
    EXPECT_EQ(st.role, cps::StageRole::kExchange);
}

TEST(GroupedRd, StageCountFollowsTreeLevels) {
  // K=3 full 3-level: each level has floor(log2 m)=1 bulk stage + pre/post
  // (m=3 and top m=6 are not powers of two).
  const Fabric fabric(PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}));
  const cps::Sequence seq = grouped_recursive_doubling(fabric);
  std::size_t folds = 0, unfolds = 0, exchanges = 0;
  for (const cps::Stage& st : seq.stages) {
    switch (st.role) {
      case cps::StageRole::kFold: ++folds; break;
      case cps::StageRole::kUnfold: ++unfolds; break;
      case cps::StageRole::kExchange: ++exchanges; break;
    }
  }
  EXPECT_EQ(folds, 3u);     // one per level (3, 3 and 6 all non-pow2)
  EXPECT_EQ(unfolds, 3u);
  EXPECT_EQ(exchanges, 1u + 1u + 2u);  // log2(2) + log2(2) + log2(4)
}

TEST(GroupedRd, ExchangeStagesPairWithinTheRightLevel) {
  const Fabric fabric(topo::fig4b_pgft16());
  const cps::Sequence seq = grouped_recursive_doubling(fabric);
  // First two stages exchange within leaves (distance < 4), last two across.
  for (std::size_t s = 0; s < 2; ++s)
    for (const cps::Pair& pr : seq.stages[s].pairs)
      EXPECT_EQ(pr.src / 4, pr.dst / 4) << "stage " << s;
  for (std::size_t s = 2; s < 4; ++s)
    for (const cps::Pair& pr : seq.stages[s].pairs)
      EXPECT_NE(pr.src / 4, pr.dst / 4) << "stage " << s;
}

TEST(GroupedRd, EveryStageIsAPartialPermutation) {
  for (const PgftSpec& spec : {
           topo::fig4b_pgft16(),
           PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}),
           PgftSpec({5, 5, 2}, {1, 5, 5}, {1, 1, 1}),
           topo::paper_cluster(128),
       }) {
    const Fabric fabric(spec);
    const cps::Sequence seq = grouped_recursive_doubling(fabric);
    for (const cps::Stage& st : seq.stages)
      EXPECT_TRUE(cps::is_partial_permutation(st, fabric.num_hosts()))
          << spec.to_string();
  }
}

TEST(GroupedRd, BulkStagesHaveXorDisplacement) {
  // Theorem 3's hypothesis: each stage's pairs sit at one hierarchical
  // distance, i.e. at most two displacement classes d and N-d.
  const Fabric fabric(topo::paper_cluster(128));
  const cps::Sequence seq = grouped_recursive_doubling(fabric);
  for (const cps::Stage& st : seq.stages) {
    const auto classes =
        cps::displacement_classes(st, fabric.num_hosts());
    EXPECT_LE(classes.size(), 2u);
    if (st.role == cps::StageRole::kExchange && classes.size() == 2) {
      EXPECT_EQ(classes[0] + classes[1], fabric.num_hosts());
    }
  }
}

TEST(GroupedRd, UniformPartialOccupancyIsSupported) {
  // One host out of every pair of hosts: every leaf keeps 2 of 4 members.
  const Fabric fabric(topo::fig4b_pgft16());
  std::vector<std::uint64_t> participants;
  for (std::uint64_t j = 0; j < 16; j += 2) participants.push_back(j);
  const cps::Sequence seq = grouped_recursive_doubling(fabric, participants);
  EXPECT_EQ(seq.num_ranks, 8u);
  for (const cps::Stage& st : seq.stages)
    EXPECT_TRUE(cps::is_partial_permutation(st, 8));
  // Level 1 now has 2 occupied children per leaf: 1 stage; level 2 still 4.
  EXPECT_EQ(seq.num_stages(), 1u + 2u);
}

TEST(GroupedRd, RaggedOccupancyIsRejected) {
  const Fabric fabric(topo::fig4b_pgft16());
  // Leaf 0 keeps three hosts, leaf 1 keeps one: not uniform.
  const std::vector<std::uint64_t> ragged{0, 1, 2, 4};
  EXPECT_THROW(grouped_recursive_doubling(fabric, ragged), util::SpecError);
}

TEST(GroupedRd, ParticipantsMustBeSorted) {
  const Fabric fabric(topo::fig4b_pgft16());
  const std::vector<std::uint64_t> unsorted{4, 0};
  EXPECT_THROW(grouped_recursive_doubling(fabric, unsorted),
               util::PreconditionError);
}

TEST(GroupedRdHalving, ReversesAndSwapsFolds) {
  const Fabric fabric(PgftSpec({3, 3, 6}, {1, 3, 3}, {1, 1, 1}));
  const cps::Sequence dbl = grouped_recursive_doubling(fabric);
  const cps::Sequence hlv = grouped_recursive_halving(fabric);
  ASSERT_EQ(dbl.num_stages(), hlv.num_stages());
  const cps::Stage& first_hlv = hlv.stages.front();
  const cps::Stage& last_dbl = dbl.stages.back();
  ASSERT_EQ(last_dbl.role, cps::StageRole::kUnfold);
  EXPECT_EQ(first_hlv.role, cps::StageRole::kFold);
  ASSERT_EQ(first_hlv.pairs.size(), last_dbl.pairs.size());
  EXPECT_EQ(first_hlv.pairs.front().src, last_dbl.pairs.front().dst);
  EXPECT_EQ(first_hlv.pairs.front().dst, last_dbl.pairs.front().src);
}

}  // namespace
}  // namespace ftcf::core
