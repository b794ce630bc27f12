// Packet-level discrete-event network simulator (the OMNeT++ substitute).
//
// Mechanisms modelled, matching the paper's §II setup:
//   * hosts inject MTU-sized packets at PCIe rate, walking their message
//     sequence asynchronously (next message as soon as the previous one is
//     on the wire) or under a per-stage barrier;
//   * input-buffered switches: per-input FIFO queues -> head-of-line
//     blocking, the mechanism behind the measured bandwidth loss;
//   * credit-based link-level flow control (finite input buffers, so
//     congestion backpressures toward the sources);
//   * round-robin output arbitration; cut-through-style per-hop latency
//     (switch + cable) added per packet, pipelined at packet granularity;
//   * links run at QDR rate, host-adjacent links at the PCIe rate.
//
// One engine, optionally partitioned (set_partitions): a conservative
// parallel discrete-event simulation (PDES). The fabric is split into
// per-LP regions (leaf subtrees plus round-robin spine groups — see
// partition.hpp); each logical process owns a private canonically-ordered
// event queue, and cross-partition link events travel through per-pair
// outbox channels exchanged at window barriers. Synchronization is
// Lubachevsky-style bounded windows: every cross-partition event (a packet
// crossing a cable, a credit returning upstream, delivery accounting flowing
// back to the source) is scheduled at least one cut-through cable delay in
// the future, so
//
//   horizon = min(next event time over all partitions) + cable_latency_ns
//
// is a safe lookahead bound — no LP can receive an event earlier than the
// horizon, so every LP may process its queue up to (but excluding) the
// horizon without ever rolling back. Synchronized-mode stage barriers ride
// the same bound: the stage-advance event is scheduled one cable delay
// after the globally last message completion. One partition degenerates to
// the classic serial event loop.
//
// Determinism: same-time events order by a canonical content key (time,
// event type, port, message, packet seq) rather than by push order, and
// there is no randomness inside the simulator — workloads carry all of it.
// For the same workload and seed:
//   * RunResult is byte-identical for every partition count and at any
//     --threads — the serial run is the differential oracle of the
//     partitioned one (pinned by the `pdes` ctest label);
//   * metrics JSON, traces and heatmaps are byte-identical at any --threads
//     for a fixed partition count. Trace *order* and link-sample boundaries
//     may differ between partition counts; per-partition trace shards merge
//     by content (timestamp, shard, seq) — see docs/OBSERVABILITY.md.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>

#include "fault/degraded.hpp"
#include "obs/sim_hooks.hpp"
#include "routing/lft.hpp"
#include "sim/ib_calibration.hpp"
#include "sim/metrics.hpp"
#include "sim/traffic.hpp"

namespace ftcf::sim {

/// How switches pick the up-going port for ascending packets:
///   kDeterministic — follow the forwarding tables (the paper's proposal);
///   kAdaptive      — any currently grantable up-port may take the packet
///                    (idealized adaptive routing: reactive, per-packet).
/// Adaptive routing avoids persistent hot spots but reorders packets — the
/// §I objection for transports like InfiniBand Reliable Connected; the
/// RunResult reports the reordering it caused.
enum class UpSelection { kDeterministic, kAdaptive };

/// Retry policy for resilient runs (transport-level, IB-RC-style semantics).
/// A packet's timeout is armed when it goes on the wire; on expiry the source
/// re-injects a copy with exponential backoff (timeout_ns << attempts so
/// far, clamped — see retx_backoff_ns). After `max_attempts` total tries the
/// packet's bytes are written off and its message completes as *failed*
/// rather than hanging the run.
struct Resilience {
  SimTime timeout_ns = 500'000;    ///< base per-packet timeout (500 us)
  std::uint32_t max_attempts = 4;  ///< total tries, first send included
};

/// Ceiling for one retransmit wait: 2^40 ns (~18.3 simulated minutes), far
/// beyond any sane timeout yet small enough that `now + ser + wait` can
/// never overflow SimTime. Documented contract: backoff doubles per attempt
/// until it reaches this ceiling and then stays there.
inline constexpr SimTime kRetxBackoffCeilingNs = SimTime{1} << 40;

/// The exponential-backoff wait armed for retransmit attempt `attempt`
/// (1-based; attempt 1 is the first injection). Doubles per attempt —
/// base << (attempt - 1) — but saturates at kRetxBackoffCeilingNs instead
/// of shifting into overflow: the naive `timeout_ns << attempts` is UB for
/// large timeouts or attempt counts (a 2^43 ns timeout overflows SimTime on
/// the second attempt).
[[nodiscard]] constexpr SimTime retx_backoff_ns(SimTime base_timeout_ns,
                                                std::uint32_t attempt) noexcept {
  const std::uint32_t shift = attempt > 1 ? std::min(attempt - 1, 40u) : 0u;
  if (base_timeout_ns >= (kRetxBackoffCeilingNs >> shift))
    return kRetxBackoffCeilingNs;
  return base_timeout_ns << shift;
}

/// Execution statistics of the last PacketSim::run (deterministic: pure
/// functions of the workload and partition count, no wall-clock).
struct PdesStats {
  std::uint32_t partitions = 1;
  std::uint64_t windows = 0;  ///< conservative synchronization windows
  std::uint64_t events = 0;   ///< core events processed (== RunResult::events)
  std::uint64_t channel_events = 0;  ///< cross-partition link events exchanged
};

namespace detail {

/// Everything a PacketSim configures, in the one bag it hands the engine.
struct EngineConfig {
  const topo::Fabric* fabric = nullptr;
  const route::ForwardingTables* tables = nullptr;
  Calibration calib;
  UpSelection up_selection = UpSelection::kDeterministic;
  SimTime jitter_max_ns = 0;
  std::uint64_t jitter_seed = 1;
  obs::SimObserver obs;
  const fault::FaultState* faults = nullptr;
  Resilience resilience;
  bool resilience_forced = false;
};

}  // namespace detail

class PacketSim {
 public:
  PacketSim(const topo::Fabric& fabric, const route::ForwardingTables& tables,
            Calibration calibration = Calibration::qdr_pcie_gen2());

  /// Number of fabric partitions (logical processes). 0 and 1 both select
  /// the serial event loop (the default); larger values are clamped to the
  /// number of leaf switches (see partition_fabric). Partition windows fan
  /// out over ftcf::par (the --threads pool). Partitioned runs require
  /// calib.cable_latency_ns >= 1 — the conservative lookahead.
  void set_partitions(std::uint32_t partitions) noexcept {
    partitions_ = partitions;
  }

  void set_up_selection(UpSelection mode) noexcept {
    cfg_.up_selection = mode;
  }

  /// Attach the observability layer (trace recorder / metrics registry /
  /// sampling period) to subsequent run() calls. Default: fully disabled.
  /// Observation never changes simulation behavior — event schedules and
  /// RunResults are identical with and without an observer.
  void set_observer(const obs::SimObserver& observer) noexcept {
    cfg_.obs = observer;
  }

  /// Synchronized-mode OS jitter (§VII discussion): each host's entry into
  /// each stage is delayed by an independent uniform [0, max_ns] draw.
  /// Zero (default) disables it.
  void set_stage_jitter(SimTime max_ns, std::uint64_t seed) noexcept {
    cfg_.jitter_max_ns = max_ns;
    cfg_.jitter_seed = seed;
  }

  /// Attach a resolved fault state (must outlive the sim and be resolved
  /// against the same Fabric). Static dead links/switches and degraded rates
  /// apply from t=0; the flap schedule is executed as mid-run events. A
  /// non-pristine state switches the resilient machinery on automatically.
  /// Pass nullptr to detach.
  void set_fault_state(const fault::FaultState* state) noexcept {
    cfg_.faults = state;
  }

  /// Override the retry policy and force the resilient path on even on a
  /// pristine fabric. Without this call (and with no non-pristine fault
  /// state) the simulator runs its classic path, byte-identical to builds
  /// without the fault layer.
  void set_resilience(const Resilience& policy) noexcept {
    cfg_.resilience = policy;
    cfg_.resilience_forced = true;
  }

  /// Simulate the workload to completion and report aggregate metrics.
  /// `event_limit` guards against runaway configurations (enforced at window
  /// granularity in partitioned runs). With faults the run still always
  /// terminates: every packet either delivers or times out, and every
  /// message completes as delivered or failed.
  [[nodiscard]] RunResult run(const std::vector<StageTraffic>& stages,
                              Progression progression,
                              std::uint64_t event_limit = 2'000'000'000ULL);

  /// Stats of the most recent run().
  [[nodiscard]] const PdesStats& last_stats() const noexcept { return stats_; }

 private:
  detail::EngineConfig cfg_;
  std::uint32_t partitions_ = 1;
  PdesStats stats_;
};

}  // namespace ftcf::sim
