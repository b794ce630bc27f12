// Result records shared by the simulators.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace ftcf::sim {

struct RunResult {
  /// Time of the last delivery, in integer nanoseconds of simulation time
  /// (SimTime *is* nanoseconds; see sim/time.hpp). Same unit as
  /// link_busy_ns below — the two are directly comparable.
  SimTime makespan = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t packets_delivered = 0; ///< packet sim only
  /// Packets that arrived after a later packet of the same message (packet
  /// sim only; nonzero under adaptive routing, the §I transport objection).
  std::uint64_t out_of_order_packets = 0;
  /// Simulation events dispatched. Counts the same events for any partition
  /// count (stage-barrier bookkeeping events are excluded), so serial and
  /// PDES runs of one workload report identical totals.
  std::uint64_t events = 0;
  std::uint64_t active_hosts = 0;      ///< hosts that injected anything

  // Resilience accounting (packet sim only; all zero on a pristine fabric
  // with resilience off — the default path has no timeouts or drops).
  std::uint64_t packets_dropped = 0;        ///< dropped at a dead/unrouted port
  std::uint64_t packets_retransmitted = 0;  ///< timeout-driven re-injections
  std::uint64_t duplicate_packets = 0;      ///< late twins of resolved packets
  std::uint64_t messages_failed = 0;        ///< retries exhausted / host cut off
  std::uint64_t bytes_failed = 0;           ///< bytes written off as undeliverable
  std::uint64_t link_down_events = 0;       ///< scripted mid-run cable deaths

  /// Mean per-host goodput in bytes/s: bytes / (makespan * active_hosts).
  double effective_bw_per_host = 0.0;
  /// effective_bw_per_host normalized to the host (PCIe) injection rate —
  /// the y-axis of paper Fig. 2.
  double normalized_bw = 0.0;

  util::Accumulator message_latency_us;  ///< injection-start to last byte

  // Per-directed-link observations, indexed by the source PortId
  // (filled by the packet engines).
  /// Total serialization time carried per link, in nanoseconds of simulation
  /// time (the same unit as `makespan`). A packet's full serialization time
  /// is charged when its transfer is granted, so the last grant can overhang
  /// the final delivery slightly.
  std::vector<SimTime> link_busy_ns;
  std::vector<std::uint32_t> max_queue_depth; ///< input-queue high-watermark

  /// Fraction of the makespan a link spent transmitting, clamped to [0, 1]
  /// (the grant-time charging above can push the raw ratio of a saturated
  /// link marginally past 1). For timelines instead of one end-of-run
  /// scalar, attach an obs::SimObserver and read the
  /// "packet_sim.link_util.*" series.
  [[nodiscard]] double link_utilization(std::size_t port) const {
    if (makespan <= 0 || port >= link_busy_ns.size()) return 0.0;
    const double util = static_cast<double>(link_busy_ns[port]) /
                        static_cast<double>(makespan);
    return util < 0.0 ? 0.0 : (util > 1.0 ? 1.0 : util);
  }
};

}  // namespace ftcf::sim
