// Contention heatmap: fold a trace event stream into per-(stage, link, VL)
// occupancy cells.
//
// This is the dynamic counterpart of the static certifier's StageWitness: for
// every CPS stage the heatmap records, per directed link and virtual lane,
// how long the link was busy serializing packets, how many packets crossed
// it, how many *distinct messages* crossed it (= concurrent flows for a
// deterministic single-path routing, i.e. the dynamic HSD witness), the queue
// high-watermark behind it, and the peak sampled utilization. The JSON
// artifact is deterministic — sorted (stage, port, vl) cells, content-only
// meta — so `ftcf_tool simulate --heatmap` output is byte-identical at any
// --threads count.
//
// obs stays topology-agnostic: no link speed enters the fold. util is busy
// time over the stage window, which is exact for the packet sim's
// serialization spans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace ftcf::obs {

/// One (stage, link, VL) occupancy cell.
struct HeatmapCell {
  std::uint64_t busy_ns = 0;    ///< summed serialization time on the link
  std::uint64_t packets = 0;    ///< kPacketForwarded events
  std::uint64_t flows = 0;      ///< distinct message ids (dynamic link load)
  std::uint32_t max_queue = 0;  ///< queue-depth high-watermark behind the link
  std::uint32_t max_sample_permille = 0;  ///< peak kLinkSample util
};

/// Cell key; stage uses kNoStage for events outside any CPS stage.
struct HeatmapKey {
  std::uint16_t stage = kNoStage;
  std::uint32_t port = 0;
  std::uint8_t vl = 0;

  friend bool operator<(const HeatmapKey& x, const HeatmapKey& y) noexcept {
    if (x.stage != y.stage) return x.stage < y.stage;
    if (x.port != y.port) return x.port < y.port;
    return x.vl < y.vl;
  }
};

class ContentionHeatmap {
 public:
  /// Fold an event stream into cells. May be called repeatedly (streams
  /// accumulate); stage windows extend over all ingested streams.
  void ingest(std::span<const TraceEvent> events);
  void ingest(const TraceRecorder& recorder);

  [[nodiscard]] const std::map<HeatmapKey, HeatmapCell>& cells()
      const noexcept {
    return cells_;
  }

  /// [begin, end] sim-time window observed for a stage (from kStageBegin/End
  /// events; falls back to the full ingested span when a stage never got
  /// explicit markers). Returns window length in ns, 0 when unknown.
  [[nodiscard]] std::uint64_t stage_window_ns(std::uint16_t stage) const;

  /// Max over directed links of distinct messages that crossed the link
  /// during `stage` (summing the link's VL cells — a message has one VL).
  /// This is the dynamic analogue of StageWitness::max_hsd.
  [[nodiscard]] std::uint64_t max_flows_in_stage(std::uint16_t stage) const;

  /// Stages that have at least one cell, ascending (kNoStage last if present).
  [[nodiscard]] std::vector<std::uint16_t> stages() const;

 private:
  struct Window {
    sim::SimTime begin = 0;
    sim::SimTime end = 0;
    bool has_begin = false;
    bool has_end = false;
  };

  std::map<HeatmapKey, HeatmapCell> cells_;
  std::map<std::uint16_t, Window> windows_;
  // distinct-message tracking per cell (messages seen so far)
  std::map<HeatmapKey, std::vector<std::uint32_t>> msgs_seen_;
  sim::SimTime span_begin_ = 0;
  sim::SimTime span_end_ = 0;
  bool any_event_ = false;
};

/// Write the heatmap as one deterministic JSON object:
///   {"meta":{...},
///    "heatmap":{"num_stages":N,"total_cells":M,
///      "stages":[{"stage":S,"window_ns":W,"max_flows":F,
///                 "links":[{"port":P,"vl":V,"busy_ns":B,"packets":K,
///                           "flows":F,"max_queue":Q,"util":U}, ...]}, ...]}}
/// Cells sort by (stage, port, vl); the out-of-stage group (stage -1) sorts
/// last. `util` is busy_ns over the stage window (%.17g), clamped to [0,1];
/// when the window is unknown or zero it falls back to the peak sampled
/// permille / 1000.
void write_heatmap_json(std::ostream& os, const ContentionHeatmap& heatmap,
                        const std::map<std::string, std::string>& meta = {});

}  // namespace ftcf::obs
