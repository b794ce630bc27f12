#include "collectives/tuned.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "collectives/oracle.hpp"
#include "core/plan.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"

namespace ftcf::coll {
namespace {

std::vector<Buffer> make_inputs(std::uint64_t ranks, std::uint64_t count,
                                std::uint64_t seed = 3) {
  util::Xoshiro256 rng(seed);
  std::vector<Buffer> inputs(ranks);
  for (auto& buf : inputs) {
    buf.resize(count);
    for (auto& e : buf) e = static_cast<Element>(rng.below(1000));
  }
  return inputs;
}

TEST(Tuned, AllreduceSelectsBySizeAndRankCount) {
  const TunedCollectives pow2(16);
  // Small: recursive doubling.
  auto s = pow2.allreduce(ReduceOp::kSum, make_inputs(16, 16));
  EXPECT_EQ(s.algorithm, "recursive doubling");
  // Large on power-of-two ranks: Rabenseifner.
  auto l = pow2.allreduce(ReduceOp::kSum, make_inputs(16, 4096));
  EXPECT_EQ(l.algorithm, "rabenseifner (reduce-scatter + allgather)");
  // Large on non-power-of-two ranks: falls back to recursive doubling.
  const TunedCollectives odd(12);
  auto f = odd.allreduce(ReduceOp::kSum, make_inputs(12, 4096));
  EXPECT_EQ(f.algorithm, "recursive doubling");
}

TEST(Tuned, EveryPathComputesTheRightAnswer) {
  for (const std::uint64_t ranks : {8ull, 12ull}) {
    for (const std::uint64_t count : {16ull, 4096ull}) {
      const TunedCollectives tuned(ranks);
      const auto inputs = make_inputs(ranks, count, ranks + count);
      const Buffer sum = oracle::reduce(ReduceOp::kSum, inputs);
      const auto ar = tuned.allreduce(ReduceOp::kSum, inputs);
      for (const Buffer& out : ar.result.outputs) ASSERT_EQ(out, sum);

      const auto blocks = make_inputs(ranks, ranks * 2, ranks + count + 1);
      const auto a2a = tuned.alltoall(blocks, 2);
      ASSERT_EQ(a2a.result.outputs, oracle::alltoall(blocks, 2));
    }
  }
}

TEST(Tuned, AlltoallAlwaysUsesPairwiseExchange) {
  const TunedCollectives tuned(9);
  const auto inputs = make_inputs(9, 18);
  EXPECT_EQ(tuned.alltoall(inputs, 2).algorithm, "pairwise exchange (shift)");
}

TEST(Tuned, SelectedTracesAreCongestionFreeUnderThePlan) {
  // The point of the whole exercise: whatever the tuned layer picks, its
  // traffic is clean on an RLFT under D-Mod-K + topology order.
  const topo::Fabric fabric(topo::paper_cluster(128));
  const core::CollectivePlan plan(fabric);
  const TunedCollectives tuned(fabric.num_hosts());
  const auto inputs = make_inputs(fabric.num_hosts(), 2048, 9);

  const auto small = tuned.allreduce(ReduceOp::kSum, make_inputs(128, 16, 9));
  const auto large = tuned.allreduce(ReduceOp::kSum, inputs);
  const auto a2a = tuned.alltoall(make_inputs(128, 128, 9), 1);
  for (const Trace* trace :
       {&small.result.trace, &large.result.trace, &a2a.result.trace}) {
    const auto cert = plan.audit(trace->sequence);
    EXPECT_TRUE(cert.contention_free)
        << trace->sequence.name << " worst HSD "
        << check::summarize(cert).worst_stage_hsd;
  }
}

TEST(Tuned, SwitchPointIsEightKibPerRank) {
  // Elements are 8 bytes, so 1023 elements (8184 B) is the largest small
  // message and 1024 elements (8192 B) the smallest large one.
  const TunedCollectives tuned(16);
  EXPECT_EQ(tuned.allreduce(ReduceOp::kSum, make_inputs(16, 1023)).algorithm,
            "recursive doubling");
  EXPECT_EQ(tuned.allreduce(ReduceOp::kSum, make_inputs(16, 1024)).algorithm,
            "rabenseifner (reduce-scatter + allgather)");
  EXPECT_EQ(tuned.allreduce(ReduceOp::kSum, make_inputs(16, 2048)).algorithm,
            "rabenseifner (reduce-scatter + allgather)");
  EXPECT_EQ(tuned.alltoall(make_inputs(16, 16 * 1023), 1023).algorithm,
            "pairwise exchange (shift)");
  EXPECT_EQ(tuned.alltoall(make_inputs(16, 16 * 1024), 1024).algorithm,
            "pairwise exchange (shift)");
}

TEST(Tuned, RejectsDegenerateRankCounts) {
  EXPECT_THROW(TunedCollectives(1), util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::coll
