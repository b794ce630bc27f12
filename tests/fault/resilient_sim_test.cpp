// Resilient packet simulation: dead links, mid-run flaps, retransmission,
// drop accounting and fault-run determinism. Every scenario must terminate
// with every message resolved as delivered or failed — never a hang.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/hsd.hpp"
#include "cps/generators.hpp"
#include "obs/metrics.hpp"
#include "routing/degraded.hpp"
#include "routing/dmodk.hpp"
#include "routing/validate.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"

namespace ftcf::sim {
namespace {

using fault::FaultState;
using fault::parse_faults;
using topo::Fabric;

std::uint64_t offered_bytes(const std::vector<StageTraffic>& stages) {
  std::uint64_t total = 0;
  for (const StageTraffic& st : stages) total += st.total_bytes();
  return total;
}

// The adversarial-Ring scenario the issue names: ring CPS under the
// adversarial ordering, with one leaf-to-spine cable dead.
struct AdversarialRig {
  AdversarialRig()
      : fabric(topo::fig4b_pgft16()),
        faults(fabric, parse_faults("link:S1_0:4")),
        ordering(order::NodeOrdering::adversarial_ring(fabric)),
        seq(cps::ring(16)),
        stages(traffic_from_cps(seq, ordering, 16, 16 * 1024)) {}
  Fabric fabric;
  FaultState faults;
  order::NodeOrdering ordering;
  cps::Sequence seq;
  std::vector<StageTraffic> stages;
};

TEST(ResilientSim, StaleTablesOnDeadLinkDropRetransmitAndTerminate) {
  // Pristine D-Mod-K tables still steer packets into the dead cable, so the
  // transport machinery must carry the run: drops at the dead head, bounded
  // retransmits, and the affected messages failing instead of hanging.
  AdversarialRig rig;
  const auto tables = route::DModKRouter{}.compute(rig.fabric);
  PacketSim psim(rig.fabric, tables);
  psim.set_fault_state(&rig.faults);
  const RunResult result = psim.run(rig.stages, Progression::kAsync);

  EXPECT_GT(result.packets_dropped, 0u);
  EXPECT_GT(result.packets_retransmitted, 0u);
  EXPECT_GT(result.messages_failed, 0u);
  // Conservation: every offered byte is delivered or explicitly written off.
  EXPECT_EQ(result.bytes_delivered + result.bytes_failed,
            offered_bytes(rig.stages));
  EXPECT_EQ(result.messages_delivered + result.messages_failed,
            [&] {
              std::uint64_t n = 0;
              for (const auto& st : rig.stages)
                for (const auto& host : st.sends) n += host.size();
              return n;
            }());
}

TEST(ResilientSim, DegradedTablesDeliverEverythingAroundTheFault) {
  // With the degraded router the same scenario loses nothing: rerouting
  // absorbs the fault and the resilient machinery stays idle.
  AdversarialRig rig;
  const auto tables = route::compute_degraded_dmodk(rig.faults);
  PacketSim psim(rig.fabric, tables);
  psim.set_fault_state(&rig.faults);
  const RunResult result = psim.run(rig.stages, Progression::kSynchronized);

  EXPECT_EQ(result.bytes_delivered, offered_bytes(rig.stages));
  EXPECT_EQ(result.messages_failed, 0u);
  EXPECT_EQ(result.packets_dropped, 0u);
}

TEST(ResilientSim, HsdMatchesTheDegradedLinkLoadOracle) {
  // Analyzer HSD on the degraded tables must equal a per-link flow count
  // obtained by walking every route independently.
  AdversarialRig rig;
  const auto tables = route::compute_degraded_dmodk(rig.faults);
  analysis::HsdAnalyzer analyzer(rig.fabric, tables);

  for (const StageTraffic& st : rig.stages) {
    std::vector<cps::Pair> flows;
    std::map<topo::PortId, std::uint32_t> oracle;
    std::uint32_t oracle_max = 0;
    for (std::uint64_t src = 0; src < st.sends.size(); ++src)
      for (const Message& msg : st.sends[src]) {
        flows.push_back(cps::Pair{static_cast<cps::Rank>(src),
                                  static_cast<cps::Rank>(msg.dst)});
        const route::RouteWalk walk =
            route::walk_route(rig.fabric, tables, src, msg.dst, &rig.faults);
        ASSERT_EQ(walk.status, route::RouteStatus::kOk);
        for (const topo::PortId pid : walk.links)
          oracle_max = std::max(oracle_max, ++oracle[pid]);
      }
    const auto metrics = analyzer.analyze_stage(flows);
    EXPECT_EQ(metrics.max_hsd, oracle_max);
    EXPECT_EQ(metrics.unroutable_flows, 0u);
  }
}

TEST(ResilientSim, MidRunFlapParksTrafficAndRecovers) {
  // One ring stage through leaf0's first up-cable; the cable dies at 20 us
  // and revives at 900 us. Everything must still arrive exactly once.
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState faults(fabric, parse_faults("flap:S1_0:4:20:900"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto stages =
      traffic_from_cps(cps::ring(16), ordering, 16, 64 * 1024);

  PacketSim psim(fabric, tables);
  psim.set_fault_state(&faults);
  const RunResult result = psim.run(stages, Progression::kAsync);

  EXPECT_GE(result.link_down_events, 1u);
  EXPECT_EQ(result.messages_failed, 0u);
  EXPECT_EQ(result.bytes_delivered, offered_bytes(stages));
  // Deliveries must not be double-counted even if a parked original and a
  // retransmitted copy both arrive.
  EXPECT_EQ(result.bytes_delivered + result.bytes_failed,
            offered_bytes(stages));
}

TEST(ResilientSim, PermanentMidRunCutFailsOnlyTheAffectedMessages) {
  // The cable dies mid-run and never comes back; pristine tables keep
  // pointing at it. Retries are bounded, so the run ends with the crossing
  // messages failed and everything else delivered.
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState faults(fabric, parse_faults("flap:S1_0:4:20"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto stages =
      traffic_from_cps(cps::shift(16), ordering, 16, 64 * 1024);

  PacketSim psim(fabric, tables);
  psim.set_fault_state(&faults);
  psim.set_resilience(Resilience{/*timeout_ns=*/50'000, /*max_attempts=*/3});
  const RunResult result = psim.run(stages, Progression::kAsync);

  EXPECT_GT(result.messages_failed, 0u);
  EXPECT_GT(result.bytes_delivered, 0u);
  EXPECT_EQ(result.bytes_delivered + result.bytes_failed,
            offered_bytes(stages));
}

TEST(ResilientSim, DeadHostCableWritesOffItsTraffic) {
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState faults(fabric, parse_faults("link:H3:0"));
  const auto tables = route::compute_degraded_dmodk(faults);
  StageTraffic st(16);
  st.add(3, 7, 4096);   // source is cut off
  st.add(0, 3, 4096);   // destination is cut off
  st.add(5, 9, 4096);   // untouched bystander
  PacketSim psim(fabric, tables);
  psim.set_fault_state(&faults);
  const RunResult result = psim.run({st}, Progression::kAsync);

  EXPECT_EQ(result.bytes_delivered, 4096u);
  EXPECT_EQ(result.bytes_failed, 2u * 4096u);
  EXPECT_EQ(result.messages_failed, 2u);
}

TEST(ResilientSim, ForcedResilienceKeepsPristineResultsIdentical) {
  // On a healthy fabric the retry machinery must be pure overhead-free
  // bookkeeping: same makespan, same bytes, no timeouts firing usefully.
  const Fabric fabric(topo::fig4b_pgft16());
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto stages = traffic_from_cps(cps::ring(16), ordering, 16, 32768);

  PacketSim plain(fabric, tables);
  PacketSim armed(fabric, tables);
  armed.set_resilience(Resilience{});
  const RunResult a = plain.run(stages, Progression::kAsync);
  const RunResult b = armed.run(stages, Progression::kAsync);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(b.packets_retransmitted, 0u);
  EXPECT_EQ(b.packets_dropped, 0u);
}

TEST(ResilientSim, FaultRunsAreByteIdenticalAcrossRepeats) {
  // Identical seeds + fault spec => byte-identical exported metrics JSON.
  const Fabric fabric(topo::fig4b_pgft16());
  const FaultState faults(fabric,
                          parse_faults("link:S1_0:4,flap:S1_1:5:30:400"));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::adversarial_ring(fabric);
  const auto stages = traffic_from_cps(cps::ring(16), ordering, 16, 16384);

  const auto run_json = [&] {
    obs::MetricsRegistry registry;
    obs::SimObserver observer;
    observer.metrics = &registry;
    PacketSim psim(fabric, tables);
    psim.set_fault_state(&faults);
    psim.set_observer(observer);
    (void)psim.run(stages, Progression::kAsync);
    std::ostringstream oss;
    registry.write_json(oss);
    return oss.str();
  };
  const std::string first = run_json();
  const std::string second = run_json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ftcf::sim
