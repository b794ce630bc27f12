// Simulation trace capture (the BigSim/OTF-style recorder of ROADMAP's
// observability step).
//
// The simulators feed a TraceRecorder with compact typed events — packet
// injected/forwarded/delivered, queue-depth high-watermark crossings, credit
// stalls, CPS stage boundaries, periodic link samples — into a pre-sized
// buffer (no allocation after construction; overflow drops-and-counts, it
// never reallocates under a hot loop). Every event additionally carries the
// CPS stage it belongs to and the virtual lane of the packet's destination,
// so post-run analyses (the contention heatmap, the cert-telemetry replay)
// can slice the stream per (stage, link, VL) without re-simulating.
//
// For parallel producers (one simulator replay per ftcf::par task), a
// ShardedTraceRecorder owns one TraceRecorder per shard; work is assigned to
// shards by *task index* — never by worker thread — and the merged view is
// sorted by (timestamp, shard, intra-shard sequence), so the merged stream is
// byte-identical at any --threads count (the same contract as
// par_determinism_test).
//
// Exporters turn an event stream into
//   * Chrome trace-event JSON (chrome://tracing / Perfetto loadable), with
//     one duration track per directed link, per-link utilization counter
//     tracks and CPS stage markers;
//   * a compact CSV for ad-hoc scripting.
//
// Recording costs one branch and one bounds-checked append per event; with no
// recorder attached the simulators skip the hooks entirely, and compiling
// with -DFTCF_OBS_DISABLED removes the profiling macros too (see profile.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ftcf::obs {

/// Typed trace events. Field meaning per kind (a/b/c are kind-specific):
///   kPacketInjected   a=host        b=msg id      c=seq
///   kPacketForwarded  a=src port    b=msg id      c=seq       dur=serialization
///   kPacketDelivered  a=host        b=msg id      c=seq
///   kQueueDepth       a=input port  b=new high-watermark
///   kCreditStall      a=out port (blocked by zero credits)
///   kStageBegin       a=stage index
///   kStageEnd         a=stage index
///   kLinkSample       a=src port    b=util permille (window)  c=queue depth
///   kPacketDropped    a=port where dropped          b=msg id  c=seq
///   kPacketRetransmit a=host        b=msg id      c=seq
///   kLinkDown         a=src port (cable dies; peer gets its own event)
///   kLinkUp           a=src port (cable revives)
enum class EventKind : std::uint8_t {
  kPacketInjected,
  kPacketForwarded,
  kPacketDelivered,
  kQueueDepth,
  kCreditStall,
  kStageBegin,
  kStageEnd,
  kLinkSample,
  kPacketDropped,
  kPacketRetransmit,
  kLinkDown,
  kLinkUp,
};

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// Sentinel stage for events outside any CPS stage (async free-run, link
/// flaps, samples between stages).
inline constexpr std::uint16_t kNoStage = 0xFFFF;

struct TraceEvent {
  sim::SimTime at = 0;   ///< simulation time (ns)
  sim::SimTime dur = 0;  ///< duration (ns) for span-like kinds, else 0
  EventKind kind = EventKind::kPacketInjected;
  std::uint8_t vl = 0;           ///< virtual lane of the destination (0 = none)
  std::uint16_t stage = kNoStage;  ///< CPS stage, kNoStage when not stage-bound
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};
// vl/stage live in what used to be struct padding: the event stays 32 bytes.
static_assert(sizeof(TraceEvent) == 32, "TraceEvent grew past one half-line");

/// Fixed-capacity event buffer. Overflow policy: keep the first `capacity`
/// events, count the rest in `dropped()` (the head of a run is where routing
/// decisions happen; the tail is usually drain).
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Append one event; drops (and counts) once the buffer is full.
  void record(const TraceEvent& ev) noexcept {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Count `n` events lost before they reached this recorder (a full
  /// per-partition shard, say) as dropped here.
  void add_dropped(std::uint64_t n) noexcept { dropped_ += n; }

 private:
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

/// Per-shard trace capture for parallel producers. Each shard is a private
/// TraceRecorder: no lock, no false sharing on the hot append path. The
/// caller assigns shards by task index (shard i <- task i), so which worker
/// thread ran the task never influences which buffer its events land in —
/// the merged stream is a pure function of the work, not the schedule.
class ShardedTraceRecorder {
 public:
  ShardedTraceRecorder(std::size_t num_shards,
                       std::size_t capacity_per_shard);

  [[nodiscard]] TraceRecorder& shard(std::size_t i) { return shards_[i]; }
  [[nodiscard]] std::size_t total_size() const noexcept;

  /// All shards' events merged deterministically: sorted by (timestamp,
  /// shard index, intra-shard sequence). Within one shard the recording
  /// order is preserved; across shards ties at one timestamp resolve by
  /// shard index. The result is byte-identical for any worker-thread count.
  [[nodiscard]] std::vector<TraceEvent> merged() const;

 private:
  std::vector<TraceRecorder> shards_;
};

/// Human-readable track names for the exporter. Leave vectors empty to fall
/// back to "port N" / "host N". topology/obs_names.hpp builds one from a
/// Fabric (obs itself stays topology-agnostic to keep the dependency DAG).
struct TraceNaming {
  std::vector<std::string> port_names;  ///< indexed by source PortId
  std::vector<std::string> host_names;  ///< indexed by host linear index
};

/// Write an event stream as Chrome trace-event JSON ("traceEvents"
/// object form, displayTimeUnit ns). Track layout:
///   pid 1 "CPS stages"   — one "X" span per begin/end stage pair plus an
///                          instant marker per stage begin;
///   pid 2 "links"        — tid per source port, one "X" span per forwarded
///                          packet (the per-link busy timeline);
///   pid 3 "link samples" — one counter track per port: util % and queue
///                          depth from kLinkSample events;
///   pid 4 "hosts"        — tid per host, instants for inject/deliver and
///                          flow start/end, plus credit-stall instants.
void write_chrome_trace(std::span<const TraceEvent> events,
                        std::uint64_t dropped, std::ostream& os,
                        const TraceNaming& naming = {});
void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os,
                        const TraceNaming& naming = {});

/// Write "ts_ns,kind,a,b,c,dur_ns,vl,stage" CSV (header line first; stage
/// prints as -1 for kNoStage).
void write_trace_csv(std::span<const TraceEvent> events, std::ostream& os);
void write_trace_csv(const TraceRecorder& recorder, std::ostream& os);

}  // namespace ftcf::obs
