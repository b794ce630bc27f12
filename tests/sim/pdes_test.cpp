// Unit tests of the partitioned packet engine: partition-map shape, and the
// core determinism contract — PacketSim at any partition count reproduces
// the serial run byte for byte — on small fabrics across every simulator
// feature (progression modes, jitter, adaptive routing, resilience, mid-run
// flaps). The heavyweight 648-node differential pins
// live in tests/integration/pdes_differential_test.cpp (`pdes` label).
#include "sim/packet_sim.hpp"

#include <gtest/gtest.h>

#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "obs/trace.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/partition.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"

namespace ftcf::sim {
namespace {

using topo::Fabric;

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.out_of_order_packets, b.out_of_order_packets);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.active_hosts, b.active_hosts);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_retransmitted, b.packets_retransmitted);
  EXPECT_EQ(a.duplicate_packets, b.duplicate_packets);
  EXPECT_EQ(a.messages_failed, b.messages_failed);
  EXPECT_EQ(a.bytes_failed, b.bytes_failed);
  EXPECT_EQ(a.link_down_events, b.link_down_events);
  EXPECT_EQ(a.effective_bw_per_host, b.effective_bw_per_host);
  EXPECT_EQ(a.normalized_bw, b.normalized_bw);
  EXPECT_EQ(a.message_latency_us.count(), b.message_latency_us.count());
  EXPECT_EQ(a.message_latency_us.sum(), b.message_latency_us.sum());
  EXPECT_EQ(a.message_latency_us.mean(), b.message_latency_us.mean());
  EXPECT_EQ(a.message_latency_us.stddev(), b.message_latency_us.stddev());
  EXPECT_EQ(a.message_latency_us.min(), b.message_latency_us.min());
  EXPECT_EQ(a.message_latency_us.max(), b.message_latency_us.max());
  EXPECT_EQ(a.link_busy_ns, b.link_busy_ns);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
}

std::vector<StageTraffic> random_workload(std::uint64_t hosts,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<StageTraffic> stages;
  for (int s = 0; s < 3; ++s) {
    StageTraffic st(hosts);
    for (std::uint64_t h = 0; h < hosts; ++h) {
      const std::uint64_t sends = rng.below(3);
      for (std::uint64_t m = 0; m < sends; ++m) {
        std::uint64_t dst = rng.below(hosts - 1);
        if (dst >= h) ++dst;
        st.add(h, dst, 1 + rng.below(60'000));
      }
    }
    stages.push_back(std::move(st));
  }
  return stages;
}

TEST(PartitionMap, CoversEveryNodeAndKeepsHostsWithTheirLeaf) {
  const Fabric fabric(topo::fig4b_pgft16());  // 4 leaves, 16 hosts
  const PartitionMap map = partition_fabric(fabric, 2);
  EXPECT_EQ(map.num_partitions, 2u);
  ASSERT_EQ(map.owner_of_node.size(), fabric.num_nodes());
  ASSERT_EQ(map.owner_of_host.size(), fabric.num_hosts());
  std::uint64_t nodes_listed = 0;
  for (std::uint32_t g = 0; g < map.num_partitions; ++g) {
    EXPECT_FALSE(map.hosts_of[g].empty());
    nodes_listed += map.nodes_of[g].size();
  }
  EXPECT_EQ(nodes_listed, fabric.num_nodes());
  for (std::uint64_t h = 0; h < fabric.num_hosts(); ++h) {
    EXPECT_EQ(map.owner_of_host[h],
              map.owner_of_node[fabric.leaf_switch_of_host(h)]);
  }
}

TEST(PartitionMap, ClampsToLeafCountAndIsDeterministic) {
  const Fabric fabric(topo::fig4b_pgft16());
  EXPECT_EQ(partition_fabric(fabric, 0).num_partitions, 1u);
  EXPECT_EQ(partition_fabric(fabric, 64).num_partitions, 4u);  // 4 leaves
  const PartitionMap a = partition_fabric(fabric, 3);
  const PartitionMap b = partition_fabric(fabric, 3);
  EXPECT_EQ(a.owner_of_node, b.owner_of_node);
  EXPECT_EQ(a.owner_of_host, b.owner_of_host);
}

TEST(Pdes, MatchesSerialOracleOnRandomWorkloads) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    const auto workload = random_workload(fabric.num_hosts(), seed);
    for (const auto mode :
         {Progression::kAsync, Progression::kSynchronized}) {
      PacketSim serial(fabric, tables);
      const RunResult oracle = serial.run(workload, mode);
      for (const std::uint32_t parts : {2u, 4u}) {
        PacketSim pdes(fabric, tables);
        pdes.set_partitions(parts);
        const RunResult got = pdes.run(workload, mode);
        expect_identical(oracle, got);
        EXPECT_EQ(pdes.last_stats().partitions, parts);
        EXPECT_GT(pdes.last_stats().windows, 0u);
        EXPECT_GT(pdes.last_stats().channel_events, 0u);
        EXPECT_EQ(pdes.last_stats().events, got.events);
      }
    }
  }
}

TEST(Pdes, MatchesSerialWithJitterAndAdaptiveRouting) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto workload = traffic_from_cps(
      cps::recursive_doubling(fabric.num_hosts()), ordering,
      fabric.num_hosts(), 8 * 1024);

  PacketSim serial(fabric, tables);
  serial.set_stage_jitter(2'000, 42);
  serial.set_up_selection(UpSelection::kAdaptive);
  const RunResult oracle =
      serial.run(workload, Progression::kSynchronized);

  PacketSim pdes(fabric, tables);
  pdes.set_stage_jitter(2'000, 42);
  pdes.set_up_selection(UpSelection::kAdaptive);
  pdes.set_partitions(4);
  const RunResult got = pdes.run(workload, Progression::kSynchronized);
  expect_identical(oracle, got);
}

TEST(Pdes, MatchesSerialUnderFaultsAndResilience) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  // A mid-run flap plus a permanently dead cable: exercises drops,
  // retransmits, write-offs and parked senders.
  const fault::FaultState faults(
      fabric, fault::parse_faults("flap:leaf0:4:50:200,link:leaf1:5"));
  const auto workload = random_workload(fabric.num_hosts(), 3);

  PacketSim serial(fabric, tables);
  serial.set_fault_state(&faults);
  serial.set_resilience({50'000, 3});
  const RunResult oracle = serial.run(workload, Progression::kSynchronized);
  EXPECT_GT(oracle.link_down_events, 0u);

  for (const std::uint32_t parts : {2u, 4u}) {
    PacketSim pdes(fabric, tables);
    pdes.set_fault_state(&faults);
    pdes.set_resilience({50'000, 3});
    pdes.set_partitions(parts);
    const RunResult got = pdes.run(workload, Progression::kSynchronized);
    expect_identical(oracle, got);
  }
}

TEST(Pdes, ShardDropsCountInTheCallersRecorder) {
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto workload = traffic_from_cps(
      cps::recursive_doubling(fabric.num_hosts()),
      order::NodeOrdering::topology(fabric), fabric.num_hosts(), 16 * 1024);
  const auto traced_run = [&](obs::TraceRecorder& trace) {
    obs::SimObserver observer;
    observer.trace = &trace;
    PacketSim pdes(fabric, tables);
    pdes.set_partitions(4);
    pdes.set_observer(observer);
    (void)pdes.run(workload, Progression::kSynchronized);
  };
  obs::TraceRecorder unbounded;
  traced_run(unbounded);
  ASSERT_EQ(unbounded.dropped(), 0u);
  obs::TraceRecorder small(64);
  traced_run(small);
  EXPECT_EQ(small.size(), 64u);
  EXPECT_EQ(small.size() + small.dropped(), unbounded.size());
}

}  // namespace
}  // namespace ftcf::sim
