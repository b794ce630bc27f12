#include "cps/generators.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "cps/classify.hpp"
#include "util/error.hpp"

namespace ftcf::cps {
namespace {

TEST(Ring, SingleShiftByOneStage) {
  const Sequence seq = ring(5);
  ASSERT_EQ(seq.num_stages(), 1u);
  EXPECT_EQ(seq.stages[0].pairs.size(), 5u);
  EXPECT_EQ(seq.stages[0].pairs[4], (Pair{4, 0}));
}

TEST(Shift, HasAllDisplacements) {
  const Sequence seq = shift(6);
  ASSERT_EQ(seq.num_stages(), 5u);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    const auto d = constant_displacement(seq.stages[s - 1], 6);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, s);
  }
  EXPECT_EQ(seq.total_pairs(), 30u);
}

TEST(Binomial, MatchesPaperExample) {
  // Paper §III: Binomial on 1024 nodes has log2(1024) = 10 stages; stage 0
  // sends 0->1, stage 1 sends 0->2 and 1->3, stage 2 sends 0..3 -> 4..7.
  const Sequence seq = binomial(1024);
  ASSERT_EQ(seq.num_stages(), 10u);
  EXPECT_EQ(seq.stages[0].pairs, (std::vector<Pair>{{0, 1}}));
  EXPECT_EQ(seq.stages[1].pairs, (std::vector<Pair>{{0, 2}, {1, 3}}));
  ASSERT_EQ(seq.stages[2].pairs.size(), 4u);
  EXPECT_EQ(seq.stages[2].pairs[3], (Pair{3, 7}));
}

TEST(Binomial, TruncatesAtNonPowerOfTwo) {
  const Sequence seq = binomial(6);
  // stages: {0->1}, {0->2,1->3}, {0->4,1->5}
  ASSERT_EQ(seq.num_stages(), 3u);
  EXPECT_EQ(seq.stages[2].pairs, (std::vector<Pair>{{0, 4}, {1, 5}}));
}

TEST(Dissemination, WrapsModuloN) {
  const Sequence seq = dissemination(5);
  ASSERT_EQ(seq.num_stages(), 3u);  // steps 1, 2, 4
  EXPECT_EQ(seq.stages[2].pairs[3], (Pair{3, 2}));  // 3 + 4 mod 5
  for (const Stage& st : seq.stages)
    EXPECT_TRUE(is_partial_permutation(st, 5));
}

TEST(Tournament, HalvesParticipants) {
  const Sequence seq = tournament(8);
  ASSERT_EQ(seq.num_stages(), 3u);
  EXPECT_EQ(seq.stages[0].pairs,
            (std::vector<Pair>{{1, 0}, {3, 2}, {5, 4}, {7, 6}}));
  EXPECT_EQ(seq.stages[1].pairs, (std::vector<Pair>{{2, 0}, {6, 4}}));
  EXPECT_EQ(seq.stages[2].pairs, (std::vector<Pair>{{4, 0}}));
}

TEST(Linear, OnePairPerStage) {
  const Sequence seq = linear(4);
  ASSERT_EQ(seq.num_stages(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(seq.stages[s].pairs.size(), 1u);
    EXPECT_EQ(seq.stages[s].pairs[0], (Pair{0, s + 1}));
  }
}

TEST(RecursiveDoubling, PowerOfTwoHasNoFolds) {
  const Sequence seq = recursive_doubling(8);
  ASSERT_EQ(seq.num_stages(), 3u);
  for (const Stage& st : seq.stages) {
    EXPECT_EQ(st.role, StageRole::kExchange);
    EXPECT_TRUE(is_bidirectional_stage(st));
    EXPECT_EQ(st.pairs.size(), 8u);
  }
}

TEST(RecursiveDoubling, NonPowerOfTwoFoldsExtras) {
  const Sequence seq = recursive_doubling(6);  // n2 = 4, extras = 2
  ASSERT_EQ(seq.num_stages(), 4u);  // pre + 2 + post
  EXPECT_EQ(seq.stages.front().role, StageRole::kFold);
  EXPECT_EQ(seq.stages.front().pairs, (std::vector<Pair>{{4, 0}, {5, 1}}));
  EXPECT_EQ(seq.stages.back().role, StageRole::kUnfold);
  EXPECT_EQ(seq.stages.back().pairs, (std::vector<Pair>{{0, 4}, {1, 5}}));
}

TEST(RecursiveHalving, ReversesStepOrder) {
  const Sequence dbl = recursive_doubling(8);
  const Sequence hlv = recursive_halving(8);
  ASSERT_EQ(dbl.num_stages(), hlv.num_stages());
  for (std::size_t s = 0; s < dbl.num_stages(); ++s)
    EXPECT_EQ(dbl.stages[s].pairs, hlv.stages[dbl.num_stages() - 1 - s].pairs);
}

TEST(Generate, DispatchesEveryKind) {
  for (const CpsKind kind : kAllCpsKinds) {
    const Sequence seq = generate(kind, 12);
    EXPECT_EQ(seq.num_ranks, 12u);
    EXPECT_GT(seq.num_stages(), 0u) << cps_name(kind);
    EXPECT_EQ(seq.name, cps_name(kind) == "ring" ? "ring" : seq.name);
  }
}

TEST(Names, RoundTrip) {
  for (const CpsKind kind : kAllCpsKinds)
    EXPECT_EQ(parse_cps(cps_name(kind)), kind);
  EXPECT_THROW((void)parse_cps("nonsense"), util::Error);
}

TEST(Generators, RejectDegenerateSizes) {
  EXPECT_THROW(ring(1), util::PreconditionError);
  EXPECT_THROW(shift(0), util::PreconditionError);
  EXPECT_THROW(shift_stage(8, 0), util::PreconditionError);
  EXPECT_THROW(shift_stage(8, 8), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::cps
