#include <gtest/gtest.h>

#include "util/expects.hpp"

#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"

namespace ftcf::sim {
namespace {

using topo::Fabric;

struct Rig {
  Fabric fabric{topo::paper_cluster(128)};
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
};

TEST(Adaptive, DeliversAllTraffic) {
  Rig rig;
  PacketSim psim(rig.fabric, rig.tables);
  psim.set_up_selection(UpSelection::kAdaptive);
  const auto ordering = order::NodeOrdering::random(rig.fabric, 3);
  const auto stages =
      traffic_from_cps(cps::dissemination(128), ordering, 128, 32 * 1024);
  const RunResult result = psim.run(stages, Progression::kAsync);
  EXPECT_EQ(result.bytes_delivered, 7ull * 128 * 32 * 1024);
}

TEST(Adaptive, ImprovesRandomOrderBandwidth) {
  Rig rig;
  const auto ordering = order::NodeOrdering::random(rig.fabric, 11);
  const std::vector<std::size_t> sample{15, 47, 95};
  const auto stages = traffic_from_cps(cps::shift(128), ordering, 128,
                                       256 * 1024, &sample);
  PacketSim det(rig.fabric, rig.tables);
  PacketSim ada(rig.fabric, rig.tables);
  ada.set_up_selection(UpSelection::kAdaptive);
  const double bw_det =
      det.run(stages, Progression::kAsync).normalized_bw;
  const double bw_ada =
      ada.run(stages, Progression::kAsync).normalized_bw;
  EXPECT_GT(bw_ada, bw_det * 1.1);
}

TEST(Adaptive, CausesReorderingDeterministicDoesNot) {
  Rig rig;
  const auto ordering = order::NodeOrdering::random(rig.fabric, 5);
  const std::vector<std::size_t> sample{31, 63};
  const auto stages = traffic_from_cps(cps::shift(128), ordering, 128,
                                       512 * 1024, &sample);
  PacketSim det(rig.fabric, rig.tables);
  const RunResult r_det = det.run(stages, Progression::kAsync);
  EXPECT_EQ(r_det.out_of_order_packets, 0u)
      << "deterministic routing must keep per-flow order";
  PacketSim ada(rig.fabric, rig.tables);
  ada.set_up_selection(UpSelection::kAdaptive);
  const RunResult r_ada = ada.run(stages, Progression::kAsync);
  EXPECT_GT(r_ada.out_of_order_packets, 0u)
      << "adaptive routing should visibly reorder under contention";
}

TEST(Adaptive, MatchesDeterministicWhenTrafficIsClean) {
  // With topology order there is nothing to adapt around: bandwidth equal.
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const std::vector<std::size_t> sample{63};
  const auto stages = traffic_from_cps(cps::shift(128), ordering, 128,
                                       256 * 1024, &sample);
  PacketSim det(rig.fabric, rig.tables);
  PacketSim ada(rig.fabric, rig.tables);
  ada.set_up_selection(UpSelection::kAdaptive);
  const double bw_det = det.run(stages, Progression::kAsync).normalized_bw;
  const double bw_ada = ada.run(stages, Progression::kAsync).normalized_bw;
  EXPECT_NEAR(bw_det, bw_ada, 0.05);
}

TEST(Adaptive, AscendsPastAnUnprogrammedEntryUnderResilience) {
  // A degraded table with no entry for a remote destination at the source
  // leaf: the adaptive relation still offers every up port there (the leaf
  // is not an ancestor of the destination), so the ascent must go through.
  // Deterministic routing has nowhere to send the packet and drops it.
  const Fabric fabric(topo::fig4b_pgft16());
  route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const std::uint64_t src = 0;
  const std::uint64_t dst = fabric.num_hosts() - 1;
  const topo::NodeId leaf = fabric.leaf_switch_of_host(src);
  ASSERT_FALSE(fabric.is_ancestor_of_host(leaf, dst));
  tables.clear_entry(leaf, dst);
  StageTraffic stage(fabric.num_hosts());
  stage.add(src, dst, 8 * 1024);
  const std::vector<StageTraffic> stages{stage};

  PacketSim ada(fabric, tables);
  ada.set_up_selection(UpSelection::kAdaptive);
  ada.set_resilience({50'000, 3});
  const RunResult got = ada.run(stages, Progression::kAsync);
  EXPECT_EQ(got.messages_failed, 0u);
  EXPECT_EQ(got.packets_dropped, 0u);
  EXPECT_EQ(got.bytes_delivered, 8u * 1024);

  PacketSim det(fabric, tables);
  det.set_resilience({50'000, 3});
  const RunResult dropped = det.run(stages, Progression::kAsync);
  EXPECT_EQ(dropped.messages_failed, 1u);
  EXPECT_GT(dropped.packets_dropped, 0u);
}

TEST(Jitter, DelaysStageEntry) {
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const auto stages =
      traffic_from_cps(cps::ring(128), ordering, 128, 64 * 1024);
  PacketSim crisp(rig.fabric, rig.tables);
  PacketSim jittery(rig.fabric, rig.tables);
  jittery.set_stage_jitter(2'000'000, 9);  // up to 2 ms per host per stage
  const auto r_crisp = crisp.run(stages, Progression::kSynchronized);
  const auto r_jit = jittery.run(stages, Progression::kSynchronized);
  EXPECT_EQ(r_crisp.bytes_delivered, r_jit.bytes_delivered);
  EXPECT_GT(r_jit.makespan, r_crisp.makespan);
  EXPECT_LT(r_jit.normalized_bw, r_crisp.normalized_bw);
}

TEST(Jitter, IsDeterministicPerSeed) {
  Rig rig;
  const auto ordering = order::NodeOrdering::topology(rig.fabric);
  const auto stages =
      traffic_from_cps(cps::ring(128), ordering, 128, 16 * 1024);
  PacketSim a(rig.fabric, rig.tables);
  PacketSim b(rig.fabric, rig.tables);
  a.set_stage_jitter(500'000, 42);
  b.set_stage_jitter(500'000, 42);
  EXPECT_EQ(a.run(stages, Progression::kSynchronized).makespan,
            b.run(stages, Progression::kSynchronized).makespan);
}

}  // namespace
}  // namespace ftcf::sim
