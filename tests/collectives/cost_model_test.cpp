#include "collectives/cost_model.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "collectives/oracle.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::coll {
namespace {

using topo::Fabric;

std::vector<Buffer> inputs_for(std::uint64_t ranks, std::uint64_t count) {
  std::vector<Buffer> inputs(ranks, Buffer(count, 1));
  return inputs;
}

struct Rig {
  Fabric fabric{topo::paper_cluster(128)};
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
};

TEST(CostModel, TopologyOrderHasNoCongestionPenalty) {
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const auto run = allgather_ring(inputs_for(128, 64));
  const auto est = estimate_cost(run.trace, rig.fabric, rig.tables, ordering);
  EXPECT_DOUBLE_EQ(est.congestion_factor, 1.0);
  EXPECT_GT(est.seconds, 0.0);
  EXPECT_EQ(est.stages, run.trace.sequence.num_stages());
}

TEST(CostModel, RandomOrderIsEstimatedSlower) {
  Rig rig;
  const auto topo_order = order::NodeOrdering::topology(rig.fabric);
  const auto random_order = order::NodeOrdering::random(rig.fabric, 3);
  // 2048 elements (16 KiB) per block so the bandwidth term dominates alpha.
  const auto run = alltoall_pairwise(inputs_for(128, 128 * 2048), 2048);
  const auto ideal =
      estimate_cost(run.trace, rig.fabric, rig.tables, topo_order);
  const auto random =
      estimate_cost(run.trace, rig.fabric, rig.tables, random_order);
  EXPECT_DOUBLE_EQ(ideal.congestion_factor, 1.0);
  EXPECT_GT(random.congestion_factor, 1.5);
  EXPECT_GT(random.seconds, ideal.seconds);
}

TEST(CostModel, MoreBytesCostMoreTime) {
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const auto small = allgather_ring(inputs_for(128, 8));
  const auto large = allgather_ring(inputs_for(128, 8192));
  const auto est_small =
      estimate_cost(small.trace, rig.fabric, rig.tables, ordering);
  const auto est_large =
      estimate_cost(large.trace, rig.fabric, rig.tables, ordering);
  EXPECT_GT(est_large.seconds, est_small.seconds);
}

TEST(CostModel, MisalignedTraceRejected) {
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  auto run = allgather_ring(inputs_for(128, 4));
  run.trace.bytes_per_pair.pop_back();
  EXPECT_THROW(
      (void)estimate_cost(run.trace, rig.fabric, rig.tables, ordering),
      util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::coll
