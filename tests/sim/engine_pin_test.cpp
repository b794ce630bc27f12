// Absolute pins of the packet engine's output. The serial-vs-partitioned
// and run-vs-run checks elsewhere compare the engine with itself, so a
// change to the event schedule would pass them all; these pins hold every
// RunResult field and the PdesStats of fixed workloads to recorded values.
// They cover both progression modes, adaptive routing, the resilient path
// (a dead cable plus a mid-run flap), stage jitter, a fabric whose leaf
// radix (80) needs more than one 64-bit request word per output port, and
// partitioned runs. A deliberate change to the engine's schedule re-records
// the pins and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/presets.hpp"

namespace ftcf::sim {
namespace {

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const T v : values) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every RunResult field and the run's PdesStats, one per line; doubles at
/// round-trip precision, per-port vectors as size, sum, max and FNV-1a.
std::string render(const RunResult& r, const PdesStats& s) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "makespan " << r.makespan << "\nbytes_delivered " << r.bytes_delivered
     << "\nmessages_delivered " << r.messages_delivered
     << "\npackets_delivered " << r.packets_delivered
     << "\nout_of_order_packets " << r.out_of_order_packets << "\nevents "
     << r.events << "\nactive_hosts " << r.active_hosts
     << "\npackets_dropped " << r.packets_dropped
     << "\npackets_retransmitted " << r.packets_retransmitted
     << "\nduplicate_packets " << r.duplicate_packets << "\nmessages_failed "
     << r.messages_failed << "\nbytes_failed " << r.bytes_failed
     << "\nlink_down_events " << r.link_down_events
     << "\neffective_bw_per_host " << r.effective_bw_per_host
     << "\nnormalized_bw " << r.normalized_bw << "\nlatency "
     << r.message_latency_us.count() << ' ' << r.message_latency_us.sum()
     << ' ' << r.message_latency_us.mean() << ' '
     << r.message_latency_us.stddev() << ' ' << r.message_latency_us.min()
     << ' ' << r.message_latency_us.max() << "\nlink_busy_ns "
     << r.link_busy_ns.size() << ' '
     << std::accumulate(r.link_busy_ns.begin(), r.link_busy_ns.end(),
                        SimTime{0})
     << ' ' << fnv1a(r.link_busy_ns) << "\nmax_queue_depth "
     << r.max_queue_depth.size() << ' '
     << std::accumulate(r.max_queue_depth.begin(), r.max_queue_depth.end(),
                        std::uint64_t{0})
     << ' '
     << (r.max_queue_depth.empty()
             ? 0u
             : *std::max_element(r.max_queue_depth.begin(),
                                 r.max_queue_depth.end()))
     << ' ' << fnv1a(r.max_queue_depth) << "\nstats " << s.partitions << ' '
     << s.windows << ' ' << s.events << ' ' << s.channel_events << '\n';
  return os.str();
}

/// The paper's 324-node RLFT and its D-Mod-K tables.
struct Rig324 {
  topo::Fabric fabric{topo::paper_cluster(324)};
  route::ForwardingTables tables{route::DModKRouter{}.compute(fabric)};
};

const Rig324& rig324() {
  static const Rig324 r;
  return r;
}

/// A 2-level PGFT whose 4 leaves each have 40 host ports and 40 up ports:
/// radix 80, so each leaf output port's request mask spans two words.
struct Rig80 {
  topo::Fabric fabric{topo::parse_pgft("PGFT(2; 40,4; 1,40; 1,1)")};
  route::ForwardingTables tables{route::DModKRouter{}.compute(fabric)};
};

const Rig80& rig80() {
  static const Rig80 r;
  return r;
}

std::vector<StageTraffic> shift_slice(const topo::Fabric& fabric,
                                      const order::NodeOrdering& ordering,
                                      std::vector<std::size_t> slice,
                                      std::uint64_t bytes) {
  const std::uint64_t n = fabric.num_hosts();
  return traffic_from_cps(cps::shift(n), ordering, n, bytes, &slice);
}

std::string run(PacketSim& sim, const std::vector<StageTraffic>& workload,
                Progression mode) {
  const RunResult result = sim.run(workload, mode);
  return render(result, sim.last_stats());
}

std::string sync_adversarial(std::uint32_t partitions) {
  const auto& r = rig324();
  PacketSim sim(r.fabric, r.tables);
  sim.set_partitions(partitions);
  return run(sim,
             shift_slice(r.fabric,
                         order::NodeOrdering::adversarial_ring(r.fabric),
                         {0, 8, 100, 322}, 4096),
             Progression::kSynchronized);
}

std::string async_random_rd() {
  const auto& r = rig324();
  PacketSim sim(r.fabric, r.tables);
  const auto ordering = order::NodeOrdering::random(r.fabric, 5);
  return run(sim,
             traffic_from_cps(cps::generate(cps::CpsKind::kRecursiveDoubling,
                                            r.fabric.num_hosts()),
                              ordering, r.fabric.num_hosts(), 2048),
             Progression::kAsync);
}

std::string adaptive_random(std::uint32_t partitions) {
  const auto& r = rig324();
  PacketSim sim(r.fabric, r.tables);
  sim.set_up_selection(UpSelection::kAdaptive);
  sim.set_partitions(partitions);
  return run(sim,
             shift_slice(r.fabric, order::NodeOrdering::random(r.fabric, 9),
                         {50, 161}, 65536),
             Progression::kAsync);
}

std::string resilient_flap(UpSelection mode) {
  const auto& r = rig324();
  const fault::FaultState faults(
      r.fabric, fault::parse_faults("flap:leaf0:20:100:400,link:leaf3:22"));
  PacketSim sim(r.fabric, r.tables);
  sim.set_up_selection(mode);
  sim.set_fault_state(&faults);
  sim.set_resilience({80'000, 3});
  return run(sim,
             shift_slice(r.fabric, order::NodeOrdering::topology(r.fabric),
                         {0, 17, 200}, 2048),
             Progression::kSynchronized);
}

std::string jittered() {
  const auto& r = rig324();
  PacketSim sim(r.fabric, r.tables);
  sim.set_stage_jitter(1'500, 17);
  return run(sim,
             shift_slice(r.fabric, order::NodeOrdering::random(r.fabric, 3),
                         {1, 40, 300}, 2048),
             Progression::kSynchronized);
}

std::string radix80(UpSelection mode) {
  const auto& r = rig80();
  PacketSim sim(r.fabric, r.tables);
  sim.set_up_selection(mode);
  return run(sim,
             shift_slice(r.fabric, order::NodeOrdering::random(r.fabric, 21),
                         {0, 39, 80, 158}, 16384),
             Progression::kSynchronized);
}

TEST(EnginePin, SynchronizedAdversarialRing) {
  EXPECT_EQ(sync_adversarial(1), R"(makespan 67900
bytes_delivered 5308416
messages_delivered 1296
packets_delivered 2592
out_of_order_packets 0
events 30372
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 241296023.56406483
normalized_bw 0.074244930327404562
latency 1296 11262.067999999999 8.6898672839506172 5.041751574745251 2.02 19.530000000000001
link_busy_ns 1296 5795200 2197076718204464549
max_queue_depth 1296 1178 2 16681031364234272149
stats 1 0 30372 0
)");
  EXPECT_EQ(sync_adversarial(4), R"(makespan 67900
bytes_delivered 5308416
messages_delivered 1296
packets_delivered 2592
out_of_order_packets 0
events 30372
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 241296023.56406483
normalized_bw 0.074244930327404562
latency 1296 11262.067999999999 8.6898672839506172 5.041751574745251 2.02 19.530000000000001
link_busy_ns 1296 5795200 2197076718204464549
max_queue_depth 1296 1178 2 16681031364234272149
stats 4 1091 30372 9274
)");
}

TEST(EnginePin, AsyncRandomRecursiveDoubling) {
  EXPECT_EQ(async_random_rd(), R"(makespan 10304
bytes_delivered 4472832
messages_delivered 2184
packets_delivered 2184
out_of_order_packets 0
events 25776
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 1339774557.1658616
normalized_bw 0.4122383252818036
latency 2184 7384.0600000000004 3.3809798534798539 0.81517384927464964 1.3899999999999999 7.202
link_busy_ns 1296 4914528 994792507869028373
max_queue_depth 1296 1423 6 14514619569571004974
stats 1 0 25776 0
)");
}

TEST(EnginePin, AdaptiveRandomShift) {
  EXPECT_EQ(adaptive_random(1), R"(makespan 94230
bytes_delivered 42467328
messages_delivered 648
packets_delivered 20736
out_of_order_packets 5003
events 242688
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 1390979518.2001486
normalized_bw 0.427993697907738
latency 648 27387.752 42.26504938271605 15.948392933647808 20.920000000000002 79.040000000000006
link_busy_ns 1296 46312448 10724213715430600549
max_queue_depth 1296 8136 32 14646288863713153969
stats 1 0 242688 0
)");
  EXPECT_EQ(adaptive_random(4), R"(makespan 94230
bytes_delivered 42467328
messages_delivered 648
packets_delivered 20736
out_of_order_packets 5003
events 242688
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 1390979518.2001486
normalized_bw 0.427993697907738
latency 648 27387.752 42.26504938271605 15.948392933647808 20.920000000000002 79.040000000000006
link_busy_ns 1296 46312448 10724213715430600549
max_queue_depth 1296 8136 32 14646288863713153969
stats 4 4860 242688 72994
)");
}

TEST(EnginePin, ResilientDeadLinkAndFlap) {
  EXPECT_EQ(resilient_flap(UpSelection::kDeterministic), R"(makespan 567168
bytes_delivered 1982464
messages_delivered 968
packets_delivered 968
out_of_order_packets 0
events 10818
active_hosts 324
packets_dropped 12
packets_retransmitted 8
duplicate_packets 0
messages_failed 4
bytes_failed 8192
link_down_events 1
effective_bw_per_host 10788189.829790672
normalized_bw 0.0033194430245509759
latency 968 2169.0479999999998 2.2407520661157023 0.57870758235015718 1.3899999999999999 2.6339999999999999
link_busy_ns 1296 1908200 550137180591983553
max_queue_depth 1296 970 1 2172814286167815607
stats 1 0 10818 0
)");
  EXPECT_EQ(resilient_flap(UpSelection::kAdaptive), R"(makespan 169172
bytes_delivered 1990656
messages_delivered 972
packets_delivered 972
out_of_order_packets 0
events 10818
active_hosts 324
packets_dropped 2
packets_retransmitted 2
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 1
effective_bw_per_host 36318066.819568247
normalized_bw 0.011174789790636384
latency 972 2342.8919999999998 2.4103827160493827 3.7187951707186953 1.3899999999999999 83.263999999999996
link_busy_ns 1296 1908988 13993830430563484165
max_queue_depth 1296 970 1 2172814286167815607
stats 1 0 10818 0
)");
}

TEST(EnginePin, StageJitter) {
  EXPECT_EQ(jittered(), R"(makespan 15218
bytes_delivered 1990656
messages_delivered 972
packets_delivered 972
out_of_order_packets 0
events 12264
active_hosts 324
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 403732422.13168615
normalized_bw 0.12422536065590344
latency 972 2544.335 2.6176286008230454 0.36278305604272038 1.3899999999999999 4.6349999999999998
link_busy_ns 1296 2156560 13638165482266504965
max_queue_depth 1296 953 1 5363099910033777972
stats 1 0 12264 0
)");
}

TEST(EnginePin, RadixAbove64) {
  EXPECT_EQ(radix80(UpSelection::kDeterministic), R"(makespan 49468
bytes_delivered 10485760
messages_delivered 640
packets_delivered 5120
out_of_order_packets 0
events 54000
active_hosts 160
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 1324816042.6942668
normalized_bw 0.40763570544438976
latency 640 4972.7259999999997 7.7698843749999993 1.8945101263513522 5.7999999999999998 14.41
link_busy_ns 640 10424320 10141733501328404261
max_queue_depth 640 805 5 14915751322068146800
stats 1 0 54000 0
)");
  EXPECT_EQ(radix80(UpSelection::kAdaptive), R"(makespan 57660
bytes_delivered 10485760
messages_delivered 640
packets_delivered 5120
out_of_order_packets 0
events 54000
active_hosts 160
packets_dropped 0
packets_retransmitted 0
duplicate_packets 0
messages_failed 0
bytes_failed 0
link_down_events 0
effective_bw_per_host 1136593825.8758237
normalized_bw 0.34972117719256113
latency 640 5307.7460000000001 8.2933531249999994 2.4747026568337129 5.7999999999999998 14.41
link_busy_ns 640 10424320 7668200818121273125
max_queue_depth 640 768 5 963536423878743911
stats 1 0 54000 0
)");
}

}  // namespace
}  // namespace ftcf::sim
