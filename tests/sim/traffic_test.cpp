#include "sim/traffic.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "cps/generators.hpp"
#include "topology/presets.hpp"

namespace ftcf::sim {
namespace {

TEST(Traffic, MapsRanksThroughTheOrdering) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = order::NodeOrdering::random(fabric, 5);
  const cps::Sequence seq = cps::ring(16);
  const auto stages = traffic_from_cps(seq, ordering, 16, 4096);
  ASSERT_EQ(stages.size(), 1u);
  std::uint64_t msgs = 0;
  for (std::uint64_t r = 0; r < 16; ++r) {
    for (const Message& m : stages[0].sends[ordering.host_of(r)]) {
      ++msgs;
      EXPECT_EQ(m.bytes, 4096u);
      // Rank r sends to rank r+1.
      EXPECT_EQ(m.dst, ordering.host_of((r + 1) % 16));
    }
  }
  EXPECT_EQ(msgs, 16u);
  EXPECT_EQ(stages[0].total_bytes(), 16u * 4096u);
}

TEST(Traffic, SelfPairsAreDropped) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = order::NodeOrdering::topology(fabric);
  cps::Sequence seq{.name = "custom", .num_ranks = 16, .stages = {}};
  seq.stages.push_back(cps::Stage{{{0, 0}, {1, 2}}, {}});
  const auto stages = traffic_from_cps(seq, ordering, 16, 100);
  EXPECT_TRUE(stages[0].sends[0].empty());
  EXPECT_EQ(stages[0].sends[1].size(), 1u);
}

TEST(Traffic, StageSubsetSelects) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence seq = cps::shift(16);  // 15 stages
  const std::vector<std::size_t> subset{0, 7, 14};
  const auto stages = traffic_from_cps(seq, ordering, 16, 512, &subset);
  ASSERT_EQ(stages.size(), 3u);
  // Stage 7 shifts by 8: host 0 sends to host 8.
  EXPECT_EQ(stages[1].sends[0][0].dst, 8u);
}

TEST(Traffic, SubsetIndexOutOfRangeThrows) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = order::NodeOrdering::topology(fabric);
  const cps::Sequence seq = cps::ring(16);
  const std::vector<std::size_t> subset{5};
  EXPECT_THROW(traffic_from_cps(seq, ordering, 16, 512, &subset),
               util::PreconditionError);
}

TEST(Traffic, ZeroByteMessagesRejected) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto ordering = order::NodeOrdering::topology(fabric);
  EXPECT_THROW(traffic_from_cps(cps::ring(16), ordering, 16, 0),
               util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::sim
