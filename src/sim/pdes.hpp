// Conservative parallel discrete-event packet simulator (PDES).
//
// ParallelPacketSim runs the exact same simulation semantics as PacketSim,
// but partitioned: the fabric is split into per-LP regions (leaf subtrees
// plus round-robin spine groups — see partition.hpp), each logical process
// owns a private canonically-ordered event queue, and cross-partition link
// events travel through per-pair outbox channels that are exchanged at
// window barriers.
//
// Synchronization is conservative, Lubachevsky-style bounded windows: every
// cross-partition event (a packet crossing a cable, a credit returning
// upstream, delivery accounting flowing back to the source) is scheduled at
// least one cut-through cable delay in the future, so
//
//   horizon = min(next event time over all partitions) + cable_latency_ns
//
// is a safe lookahead bound — no LP can receive an event earlier than the
// horizon, so every LP may process its queue up to (but excluding) the
// horizon without ever rolling back. Synchronized-mode stage barriers ride
// the same bound: the stage-advance event is scheduled one cable delay
// after the globally last message completion.
//
// Determinism contract (same seed + same partition count):
//   * RunResult is byte-identical at any --threads, and also byte-identical
//     to the serial PacketSim for every partition count — the serial engine
//     is the differential oracle (pinned by the `pdes` ctest label).
//   * Metrics JSON, traces and heatmaps are byte-identical at any --threads
//     for a fixed partition count. Trace *order* and link-sample boundaries
//     may differ between partition counts; per-partition trace shards merge
//     by content (timestamp, shard, seq) — see docs/OBSERVABILITY.md.
#pragma once

#include "sim/packet_sim.hpp"
#include "sim/partition.hpp"

namespace ftcf::sim {

/// Execution statistics of the last ParallelPacketSim::run (deterministic:
/// pure functions of the workload and partition count, no wall-clock).
struct PdesStats {
  std::uint32_t partitions = 1;
  std::uint64_t windows = 0;  ///< conservative synchronization windows
  std::uint64_t events = 0;   ///< core events processed (== RunResult::events)
  std::uint64_t channel_events = 0;  ///< cross-partition link events exchanged
};

/// Drop-in parallel counterpart of PacketSim: identical configuration
/// surface, identical RunResult for any partition count. Partition window
/// execution fans out over ftcf::par (the --threads pool); with one
/// partition the engine degenerates to the serial event loop.
class ParallelPacketSim {
 public:
  ParallelPacketSim(const topo::Fabric& fabric,
                    const route::ForwardingTables& tables,
                    Calibration calibration = Calibration::qdr_pcie_gen2());

  /// Number of fabric partitions (logical processes). 0 and 1 both select
  /// the serial path; larger values are clamped to the number of leaf
  /// switches (see partition_fabric). Partitioned runs require
  /// calib.cable_latency_ns >= 1 — the conservative lookahead.
  void set_partitions(std::uint32_t partitions) noexcept {
    partitions_ = partitions;
  }

  void set_up_selection(UpSelection mode) noexcept { up_selection_ = mode; }
  void set_observer(const obs::SimObserver& observer) noexcept {
    obs_ = observer;
  }
  void set_stage_jitter(SimTime max_ns, std::uint64_t seed) noexcept {
    jitter_max_ns_ = max_ns;
    jitter_seed_ = seed;
  }
  void set_fault_state(const fault::FaultState* state) noexcept {
    faults_ = state;
  }
  void set_resilience(const Resilience& policy) noexcept {
    resilience_ = policy;
    resilience_forced_ = true;
  }

  /// Simulate the workload to completion. Semantics and RunResult match
  /// PacketSim::run exactly; `event_limit` is enforced at window
  /// granularity in partitioned runs.
  [[nodiscard]] RunResult run(const std::vector<StageTraffic>& stages,
                              Progression progression,
                              std::uint64_t event_limit = 2'000'000'000ULL);

  /// Stats of the most recent run().
  [[nodiscard]] const PdesStats& last_stats() const noexcept { return stats_; }

 private:
  const topo::Fabric* fabric_;
  const route::ForwardingTables* tables_;
  Calibration calib_;
  std::uint32_t partitions_ = 1;
  UpSelection up_selection_ = UpSelection::kDeterministic;
  SimTime jitter_max_ns_ = 0;
  std::uint64_t jitter_seed_ = 1;
  obs::SimObserver obs_;
  const fault::FaultState* faults_ = nullptr;
  Resilience resilience_;
  bool resilience_forced_ = false;
  PdesStats stats_;
};

}  // namespace ftcf::sim
