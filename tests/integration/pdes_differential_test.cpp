// The `pdes` ctest label: differential pins of the partitioned packet
// engine against the serial oracle on the paper's 648-node RLFT, plus the
// thread-invariance half of the determinism contract — for a fixed
// partition count, RunResult, metrics JSON and the merged trace are
// byte-identical at any --threads. CI runs this suite under TSan too.
//
// Workloads deliberately cover the three regimes the paper's evaluation
// exercises: contention-free in-order Shift stages (NodeOrdering::topology),
// the worst-case adversarial ring placement, and a faulted fabric with a
// mid-run flap timeline driving the resilient path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_hooks.hpp"
#include "obs/trace.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::sim {
namespace {

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

// The 648-node RLFT(2; 18,18; 1,9) and its D-mod-K tables, built once for
// the whole suite.
struct Rlft648 {
  topo::Fabric fabric;
  route::ForwardingTables tables;
  Rlft648()
      : fabric(topo::paper_cluster(648)),
        tables(route::DModKRouter{}.compute(fabric)) {}
};

const Rlft648& rig() {
  static const Rlft648 r;
  return r;
}

// A representative slice of the full Shift sweep: first and last
// displacements plus an intra-leaf and a cross-spine one. The full
// unsampled 647-stage sweep runs in CI via bench/shift_sweep.
std::vector<std::size_t> shift_slice() { return {0, 8, 323, 645}; }

TEST(Pdes648, InOrderShiftStagesMatchSerial) {
  const auto& r = rig();
  const auto ordering = order::NodeOrdering::topology(r.fabric);
  const auto slice = shift_slice();
  const auto workload = traffic_from_cps(cps::shift(648), ordering, 648,
                                         2 * 1024, &slice);

  PacketSim serial(r.fabric, r.tables);
  const RunResult oracle = serial.run(workload, Progression::kSynchronized);
  EXPECT_EQ(oracle.messages_failed, 0u);

  for (const std::uint32_t parts : {2u, 8u}) {
    PacketSim pdes(r.fabric, r.tables);
    pdes.set_partitions(parts);
    const RunResult got = pdes.run(workload, Progression::kSynchronized);
    expect_identical(oracle, got);
    EXPECT_EQ(pdes.last_stats().partitions, parts);
    EXPECT_GT(pdes.last_stats().windows, 0u);
  }
}

TEST(Pdes648, AdversarialRingWithJitterMatchesSerial) {
  const auto& r = rig();
  const auto ordering = order::NodeOrdering::adversarial_ring(r.fabric);
  const auto slice = shift_slice();
  const auto workload = traffic_from_cps(cps::shift(648), ordering, 648,
                                         2 * 1024, &slice);

  PacketSim serial(r.fabric, r.tables);
  serial.set_stage_jitter(1'500, 17);
  const RunResult oracle = serial.run(workload, Progression::kSynchronized);

  for (const std::uint32_t parts : {2u, 8u}) {
    PacketSim pdes(r.fabric, r.tables);
    pdes.set_stage_jitter(1'500, 17);
    pdes.set_partitions(parts);
    expect_identical(oracle, pdes.run(workload, Progression::kSynchronized));
  }
}

TEST(Pdes648, FaultedFlapTimelineMatchesSerial) {
  const auto& r = rig();
  // One cable flaps mid-run, one stays dead for the whole run: exercises
  // drops, timeouts, retransmits and failed-message write-offs across
  // partition boundaries.
  const fault::FaultState faults(
      r.fabric,
      fault::parse_faults("flap:leaf0:4:100:400,link:leaf3:2"));
  const auto ordering = order::NodeOrdering::topology(r.fabric);
  const std::vector<std::size_t> slice{0, 17};
  const auto workload = traffic_from_cps(cps::shift(648), ordering, 648,
                                         2 * 1024, &slice);

  PacketSim serial(r.fabric, r.tables);
  serial.set_fault_state(&faults);
  serial.set_resilience({80'000, 3});
  const RunResult oracle = serial.run(workload, Progression::kSynchronized);
  EXPECT_GT(oracle.link_down_events, 0u);

  for (const std::uint32_t parts : {2u, 8u}) {
    PacketSim pdes(r.fabric, r.tables);
    pdes.set_fault_state(&faults);
    pdes.set_resilience({80'000, 3});
    pdes.set_partitions(parts);
    expect_identical(oracle, pdes.run(workload, Progression::kSynchronized));
  }
}

TEST(Pdes648, AsyncProgressionMatchesSerial) {
  const auto& r = rig();
  const auto ordering = order::NodeOrdering::topology(r.fabric);
  const std::vector<std::size_t> slice{0, 323};
  const auto workload = traffic_from_cps(cps::shift(648), ordering, 648,
                                         2 * 1024, &slice);

  PacketSim serial(r.fabric, r.tables);
  const RunResult oracle = serial.run(workload, Progression::kAsync);

  PacketSim pdes(r.fabric, r.tables);
  pdes.set_partitions(8);
  expect_identical(oracle, pdes.run(workload, Progression::kAsync));
}

// One observed run: partitions fixed, thread count swept. Returns the
// metrics JSON and the recorded trace.
struct Observed {
  RunResult result;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace;
};

Observed observed_run(std::uint32_t partitions, std::uint32_t threads) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto workload = traffic_from_cps(
      cps::recursive_doubling(fabric.num_hosts()), ordering,
      fabric.num_hosts(), 16 * 1024);

  par::set_default_threads(threads);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::SimObserver observer;
  observer.trace = &trace;
  observer.metrics = &metrics;
  observer.sample_period_ns = 5'000;

  PacketSim pdes(fabric, tables);
  pdes.set_partitions(partitions);
  pdes.set_observer(observer);
  Observed out;
  out.result = pdes.run(workload, Progression::kSynchronized);
  std::ostringstream os;
  metrics.write_json(os);
  out.metrics_json = os.str();
  out.trace = trace.events();
  par::set_default_threads(0);
  return out;
}

TEST(PdesByteIdentity, ReportsAreThreadInvariantAtEveryPartitionCount) {
  for (const std::uint32_t parts : {1u, 2u, 8u}) {
    const Observed base = observed_run(parts, 1);
    EXPECT_GT(base.trace.size(), 0u);
    EXPECT_NE(base.metrics_json.find("packet_sim."), std::string::npos);
    for (const std::uint32_t threads : {2u, 8u}) {
      const Observed got = observed_run(parts, threads);
      expect_identical(base.result, got.result);
      EXPECT_EQ(base.metrics_json, got.metrics_json)
          << "metrics JSON differs: partitions=" << parts
          << " threads=" << threads;
      ASSERT_EQ(base.trace.size(), got.trace.size());
      for (std::size_t i = 0; i < base.trace.size(); ++i) {
        const auto& a = base.trace[i];
        const auto& b = got.trace[i];
        ASSERT_TRUE(a.at == b.at && a.dur == b.dur && a.kind == b.kind &&
                    a.vl == b.vl && a.stage == b.stage && a.a == b.a &&
                    a.b == b.b && a.c == b.c)
            << "trace diverges at event " << i << " (partitions=" << parts
            << " threads=" << threads << ")";
      }
    }
  }
}

TEST(PdesByteIdentity, SerialOracleMatchesOnePartitionEngine) {
  // The degenerate single-partition engine must not just match the serial
  // RunResult — its metrics export must also stay free of pdes.* keys so
  // existing serial reports remain byte-stable.
  const Observed one = observed_run(1, 1);
  EXPECT_EQ(one.metrics_json.find("pdes."), std::string::npos);
  const Observed four = observed_run(4, 1);
  EXPECT_NE(four.metrics_json.find("pdes.partitions"), std::string::npos);
  expect_identical(one.result, four.result);
}

}  // namespace
}  // namespace ftcf::sim
