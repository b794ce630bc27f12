#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "collectives/collectives.hpp"
#include "collectives/oracle.hpp"
#include "cps/classify.hpp"
#include "util/rng.hpp"

namespace ftcf::coll {
namespace {

std::vector<Buffer> make_inputs(std::uint64_t ranks, std::uint64_t count,
                                std::uint64_t seed = 1) {
  util::Xoshiro256 rng(seed);
  std::vector<Buffer> inputs(ranks);
  for (auto& buf : inputs) {
    buf.resize(count);
    for (auto& e : buf) e = static_cast<Element>(rng.below(1000)) - 500;
  }
  return inputs;
}

TEST(AllgatherRecursiveDoubling, MatchesOracleOnPowersOfTwo) {
  for (const std::uint64_t ranks : {2ull, 4ull, 8ull, 16ull, 32ull}) {
    const auto inputs = make_inputs(ranks, 3, ranks);
    const auto result = allgather_recursive_doubling(inputs);
    const auto expect = oracle::allgather(inputs);
    for (std::uint64_t r = 0; r < ranks; ++r)
      ASSERT_EQ(result.outputs[r], expect[r]) << "ranks " << ranks;
    EXPECT_EQ(result.trace.sequence.num_stages(),
              static_cast<std::size_t>(std::countr_zero(ranks)));
    // At ranks == 2 the single XOR exchange coincides with shift-by-1 and
    // classifies unidirectional; beyond that it is properly bidirectional.
    if (ranks >= 4) {
      EXPECT_EQ(cps::sequence_direction(result.trace.sequence),
                cps::Direction::kBidirectional);
    }
  }
}

TEST(AllgatherRecursiveDoubling, RejectsNonPowerOfTwo) {
  EXPECT_THROW(allgather_recursive_doubling(make_inputs(6, 2)),
               util::PreconditionError);
}

TEST(AllreduceRabenseifner, MatchesOracle) {
  for (const std::uint64_t ranks : {2ull, 4ull, 8ull, 16ull}) {
    const auto inputs = make_inputs(ranks, ranks * 4, ranks + 7);
    const auto result = allreduce_rabenseifner(ReduceOp::kSum, inputs);
    const Buffer expect = oracle::reduce(ReduceOp::kSum, inputs);
    for (std::uint64_t r = 0; r < ranks; ++r)
      ASSERT_EQ(result.outputs[r], expect) << "ranks " << ranks;
    // Halving phase + doubling phase.
    EXPECT_EQ(result.trace.sequence.num_stages(),
              2 * static_cast<std::size_t>(std::countr_zero(ranks)));
  }
}

TEST(AllreduceRabenseifner, WorksForAllOps) {
  const auto inputs = make_inputs(8, 16, 99);
  for (const ReduceOp op :
       {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin, ReduceOp::kBxor}) {
    const auto result = allreduce_rabenseifner(op, inputs);
    EXPECT_EQ(result.outputs[3], oracle::reduce(op, inputs));
  }
}

}  // namespace
}  // namespace ftcf::coll
