#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include <algorithm>
#include <set>

namespace ftcf::util {
namespace {

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Xoshiro256, BelowCoversAllResidues) {
  Xoshiro256 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, UniformIsInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomPermutation, IsAPermutation) {
  Xoshiro256 rng(9);
  const auto perm = random_permutation(100, rng);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RandomPermutation, VariesWithSeed) {
  Xoshiro256 a(1), b(2);
  EXPECT_NE(random_permutation(50, a), random_permutation(50, b));
}

TEST(RandomSubset, SortedAndSized) {
  Xoshiro256 rng(13);
  const auto sub = random_subset(100, 17, rng);
  EXPECT_EQ(sub.size(), 17u);
  EXPECT_TRUE(std::is_sorted(sub.begin(), sub.end()));
  for (const auto v : sub) EXPECT_LT(v, 100u);
}

TEST(RandomSubset, RejectsOversizedRequest) {
  Xoshiro256 rng(1);
  EXPECT_THROW(random_subset(5, 6, rng), PreconditionError);
}

TEST(DeriveSeed, MatchesSteppingSplitMix64) {
  // derive_seed(base, i) is random access into the SplitMix64 stream seeded
  // with `base`: it must equal the (i+1)-th output of the stepping
  // generator.
  const std::uint64_t base = 0x853c49e6748fea9bULL;
  SplitMix64 stream(base);
  for (std::uint64_t i = 0; i < 64; ++i)
    EXPECT_EQ(derive_seed(base, i), stream.next()) << "index " << i;
}

TEST(DeriveSeed, AdjacentBasesShareNoTrialSeeds) {
  // The bug this replaces: seeding trial t with `seed + t` aliases ensembles
  // run from adjacent base seeds (base 42 trial 1 == base 43 trial 0).
  // Mixed derivation must not collide anywhere in a realistic window.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 40; base < 48; ++base)
    for (std::uint64_t t = 0; t < 32; ++t)
      seen.push_back(derive_seed(base, t));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DeriveSeed, IsUsableAtCompileTime) {
  static_assert(derive_seed(1, 0) != derive_seed(1, 1));
  static_assert(derive_seed(0, 0) != 0);
}

TEST(Shuffle, PreservesElements) {
  Xoshiro256 rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

}  // namespace
}  // namespace ftcf::util
