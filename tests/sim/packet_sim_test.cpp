#include "sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"

namespace ftcf::sim {
namespace {

using topo::Fabric;

struct Rig {
  explicit Rig(topo::PgftSpec spec = topo::fig4b_pgft16())
      : fabric(std::move(spec)),
        tables(route::DModKRouter{}.compute(fabric)),
        sim(fabric, tables) {}
  Fabric fabric;
  route::ForwardingTables tables;
  PacketSim sim;
};

TEST(PacketSim, DeliversEveryByte) {
  Rig rig;
  StageTraffic st(16);
  st.add(0, 5, 10000);
  st.add(3, 12, 4096);
  st.add(9, 2, 1);
  const RunResult result = rig.sim.run({st}, Progression::kAsync);
  EXPECT_EQ(result.bytes_delivered, 10000u + 4096u + 1u);
  EXPECT_EQ(result.messages_delivered, 3u);
  EXPECT_EQ(result.active_hosts, 3u);
  EXPECT_GT(result.makespan, 0);
}

TEST(PacketSim, SingleFlowReachesHostRate) {
  // Calibration: an uncontended large transfer runs at the PCIe rate.
  Rig rig;
  StageTraffic st(16);
  const std::uint64_t bytes = 32 * 1024 * 1024;
  st.add(0, 12, bytes);
  const RunResult result = rig.sim.run({st}, Progression::kAsync);
  const Calibration calib;
  EXPECT_NEAR(result.effective_bw_per_host, calib.host_bw_bytes_per_sec,
              0.02 * calib.host_bw_bytes_per_sec);
  EXPECT_NEAR(result.normalized_bw, 1.0, 0.02);
}

TEST(PacketSim, TwoFlowsIntoOneHostShareItsLink) {
  Rig rig;
  StageTraffic st(16);
  const std::uint64_t bytes = 8 * 1024 * 1024;
  st.add(4, 0, bytes);   // different source leaves, same destination:
  st.add(8, 0, bytes);   // the delivery link halves each flow's rate
  const RunResult result = rig.sim.run({st}, Progression::kAsync);
  EXPECT_NEAR(result.normalized_bw, 0.5, 0.05);
}

TEST(PacketSim, CongestionFreeShiftKeepsFullBandwidth) {
  // The paper's headline: D-Mod-K + topology order + shift stage = full BW.
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const cps::Sequence seq = cps::shift(16);
  const auto stages = traffic_from_cps(seq, ordering, 16, 256 * 1024);
  const RunResult result = rig.sim.run(stages, Progression::kSynchronized);
  EXPECT_GT(result.normalized_bw, 0.9);
}

TEST(PacketSim, AdversarialOrderCollapsesBandwidth) {
  Rig rig(topo::paper_cluster(128));  // K = 8
  const auto ordering = order::NodeOrdering::adversarial_ring(rig.fabric);
  const auto stages =
      traffic_from_cps(cps::ring(128), ordering, 128, 512 * 1024);
  const RunResult result = rig.sim.run(stages, Progression::kSynchronized);
  // K flows share one leaf up-link: ~1/K of nominal plus boundary effects.
  EXPECT_LT(result.normalized_bw, 0.3);
}

TEST(PacketSim, SynchronizedIsNoFasterThanAsync) {
  Rig rig;
  const auto ordering = order::NodeOrdering::random(rig.fabric, 17);
  const auto stages =
      traffic_from_cps(cps::dissemination(16), ordering, 16, 64 * 1024);
  const auto sync = rig.sim.run(stages, Progression::kSynchronized);
  const auto async = rig.sim.run(stages, Progression::kAsync);
  EXPECT_EQ(sync.bytes_delivered, async.bytes_delivered);
  EXPECT_GE(sync.makespan, async.makespan);
}

TEST(PacketSim, MessageLatencyIncludesCutThroughPipeline) {
  Rig rig;
  StageTraffic st(16);
  st.add(0, 15, 2048);  // exactly one MTU, 3 switch hops
  const RunResult result = rig.sim.run({st}, Progression::kAsync);
  ASSERT_EQ(result.message_latency_us.count(), 1u);
  const Calibration calib;
  // Host serialization + 3 forwards at link rate + per-hop latencies.
  const double ser_host = 2048 / calib.host_bw_bytes_per_sec * 1e6;
  const double ser_link = 2048 / calib.link_bw_bytes_per_sec * 1e6;
  const double hop =
      static_cast<double>(calib.switch_latency_ns + calib.cable_latency_ns) *
      1e-3;
  const double expected = ser_host + 3 * ser_link + 3 * hop +
                          static_cast<double>(calib.cable_latency_ns) * 1e-3;
  EXPECT_NEAR(result.message_latency_us.mean(), expected, 0.2);
}

TEST(PacketSim, EventLimitGuards) {
  Rig rig;
  StageTraffic st(16);
  st.add(0, 9, 1 << 20);
  EXPECT_THROW(rig.sim.run({st}, Progression::kAsync, /*event_limit=*/10),
               util::PreconditionError);
}

TEST(PacketSim, EmptyStagesComplete) {
  Rig rig;
  const RunResult result =
      rig.sim.run({StageTraffic(16), StageTraffic(16)},
                  Progression::kSynchronized);
  EXPECT_EQ(result.bytes_delivered, 0u);
  EXPECT_EQ(result.makespan, 0);
}

TEST(PacketSim, RejectsSelfMessages) {
  Rig rig;
  StageTraffic st(16);
  st.add(2, 2, 100);
  EXPECT_THROW(rig.sim.run({st}, Progression::kAsync),
               util::PreconditionError);
}

}  // namespace
}  // namespace ftcf::sim
