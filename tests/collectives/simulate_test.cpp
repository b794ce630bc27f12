#include "collectives/simulate.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "collectives/cost_model.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::coll {
namespace {

using topo::Fabric;

struct Rig {
  Fabric fabric{topo::paper_cluster(128)};
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  order::NodeOrdering topo_order = order::NodeOrdering::topology(fabric);
};

std::vector<Buffer> inputs_for(std::uint64_t ranks, std::uint64_t count) {
  return std::vector<Buffer>(ranks, Buffer(count, 2));
}

TEST(SimulateTrace, DeliversTheTraceTraffic) {
  Rig rig;
  const auto run = allreduce_recursive_doubling(ReduceOp::kSum,
                                                inputs_for(128, 1024));
  const auto cost =
      simulate_trace(run.trace, rig.fabric, rig.tables, rig.topo_order);
  EXPECT_GT(cost.seconds, 0.0);
  // 7 stages x 128 ranks x 8 KiB per exchange.
  EXPECT_EQ(cost.run.bytes_delivered, 7ull * 128 * 1024 * sizeof(Element));
}

TEST(SimulateTrace, AgreesWithCostModelOnCleanTraffic) {
  Rig rig;
  const auto run = allgather_ring(inputs_for(128, 8192));  // 64 KiB blocks
  const auto modeled =
      estimate_cost(run.trace, rig.fabric, rig.tables, rig.topo_order);
  const auto simulated =
      simulate_trace(run.trace, rig.fabric, rig.tables, rig.topo_order);
  // The alpha-beta-HSD model ignores pipeline/credit effects; agreement
  // within 25% on congestion-free traffic is the validation target.
  EXPECT_NEAR(simulated.seconds / modeled.seconds, 1.0, 0.25);
}

TEST(SimulateTrace, RanksOrdersTheSameWayAsTheModel) {
  Rig rig;
  const auto random_order = order::NodeOrdering::random(rig.fabric, 13);
  const auto run = alltoall_pairwise(inputs_for(128, 128 * 512), 512);
  const auto m_topo =
      estimate_cost(run.trace, rig.fabric, rig.tables, rig.topo_order);
  const auto m_rand =
      estimate_cost(run.trace, rig.fabric, rig.tables, random_order);
  const auto s_topo =
      simulate_trace(run.trace, rig.fabric, rig.tables, rig.topo_order);
  const auto s_rand =
      simulate_trace(run.trace, rig.fabric, rig.tables, random_order);
  // Both agree the random order is slower...
  EXPECT_GT(m_rand.seconds, m_topo.seconds);
  EXPECT_GT(s_rand.seconds, s_topo.seconds);
  // ...by a broadly similar factor.
  const double model_factor = m_rand.seconds / m_topo.seconds;
  const double sim_factor = s_rand.seconds / s_topo.seconds;
  EXPECT_GT(sim_factor, 0.5 * model_factor);
  EXPECT_LT(sim_factor, 2.0 * model_factor);
}

TEST(SimulateTrace, ZeroByteStagesStillTraverse) {
  Rig rig;
  // A barrier: dissemination pairs that carry no payload.
  Trace trace;
  trace.sequence = cps::dissemination(128);
  trace.bytes_per_pair.assign(trace.sequence.num_stages(), 0);
  const auto cost =
      simulate_trace(trace, rig.fabric, rig.tables, rig.topo_order);
  EXPECT_GT(cost.run.packets_delivered, 0u);
  EXPECT_GT(cost.seconds, 0.0);
}

TEST(SimulateTrace, MisalignedTraceRejected) {
  Rig rig;
  auto run = allgather_ring(inputs_for(128, 4));
  run.trace.bytes_per_pair.pop_back();
  EXPECT_THROW(
      simulate_trace(run.trace, rig.fabric, rig.tables, rig.topo_order),
      util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::coll
