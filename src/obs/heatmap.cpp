#include "obs/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace ftcf::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Same formatting contract as the metrics exporter: shortest round-trippable
/// double, no NaN/Inf literals.
void print_double(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << (std::isnan(v) ? "null" : (v > 0 ? "1e308" : "-1e308"));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void ContentionHeatmap::ingest(std::span<const TraceEvent> events) {
  for (const TraceEvent& ev : events) {
    if (!any_event_ || ev.at < span_begin_) span_begin_ = ev.at;
    const sim::SimTime end = ev.at + ev.dur;
    if (!any_event_ || end > span_end_) span_end_ = end;
    any_event_ = true;

    switch (ev.kind) {
      case EventKind::kStageBegin: {
        Window& win = windows_[static_cast<std::uint16_t>(ev.a)];
        if (!win.has_begin || ev.at < win.begin) win.begin = ev.at;
        win.has_begin = true;
        break;
      }
      case EventKind::kStageEnd: {
        Window& win = windows_[static_cast<std::uint16_t>(ev.a)];
        if (!win.has_end || ev.at > win.end) win.end = ev.at;
        win.has_end = true;
        break;
      }
      case EventKind::kPacketForwarded: {
        const HeatmapKey key{ev.stage, ev.a, ev.vl};
        HeatmapCell& cell = cells_[key];
        cell.busy_ns += static_cast<std::uint64_t>(ev.dur);
        ++cell.packets;
        std::vector<std::uint32_t>& seen = msgs_seen_[key];
        if (std::find(seen.begin(), seen.end(), ev.b) == seen.end()) {
          seen.push_back(ev.b);
          ++cell.flows;
        }
        break;
      }
      case EventKind::kQueueDepth: {
        HeatmapCell& cell = cells_[HeatmapKey{ev.stage, ev.a, ev.vl}];
        cell.max_queue = std::max(cell.max_queue, ev.b);
        break;
      }
      case EventKind::kLinkSample: {
        HeatmapCell& cell = cells_[HeatmapKey{ev.stage, ev.a, ev.vl}];
        cell.max_sample_permille = std::max(cell.max_sample_permille, ev.b);
        cell.max_queue = std::max(cell.max_queue, ev.c);
        break;
      }
      default:
        break;
    }
  }
}

void ContentionHeatmap::ingest(const TraceRecorder& recorder) {
  ingest(std::span<const TraceEvent>(recorder.events()));
}

std::uint64_t ContentionHeatmap::stage_window_ns(std::uint16_t stage) const {
  const auto it = windows_.find(stage);
  if (it != windows_.end() && it->second.has_begin && it->second.has_end &&
      it->second.end > it->second.begin) {
    return static_cast<std::uint64_t>(it->second.end - it->second.begin);
  }
  if (any_event_ && span_end_ > span_begin_)
    return static_cast<std::uint64_t>(span_end_ - span_begin_);
  return 0;
}

std::uint64_t ContentionHeatmap::max_flows_in_stage(
    std::uint16_t stage) const {
  std::uint64_t best = 0;
  std::uint64_t per_port = 0;
  std::uint32_t cur_port = 0;
  bool open = false;
  // cells_ is sorted (stage, port, vl): one linear pass sums a port's VLs.
  for (const auto& [key, cell] : cells_) {
    if (key.stage != stage) continue;
    if (!open || key.port != cur_port) {
      best = std::max(best, per_port);
      per_port = 0;
      cur_port = key.port;
      open = true;
    }
    per_port += cell.flows;
  }
  return std::max(best, per_port);
}

std::vector<std::uint16_t> ContentionHeatmap::stages() const {
  std::vector<std::uint16_t> out;
  for (const auto& [key, _] : cells_)
    if (out.empty() || out.back() != key.stage) out.push_back(key.stage);
  // cells_ sorts kNoStage (0xFFFF) last already; dedupe is complete because
  // the map iterates stages in ascending runs.
  return out;
}

void write_heatmap_json(std::ostream& os, const ContentionHeatmap& heatmap,
                        const std::map<std::string, std::string>& meta) {
  os << "{\n \"meta\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  const std::vector<std::uint16_t> stages = heatmap.stages();
  os << "},\n \"heatmap\":{\"num_stages\":" << stages.size()
     << ",\"total_cells\":" << heatmap.cells().size() << ",\"stages\":[";
  const auto& cells = heatmap.cells();
  auto it = cells.begin();
  bool first_stage = true;
  for (const std::uint16_t stage : stages) {
    if (!first_stage) os << ',';
    first_stage = false;
    const std::uint64_t window = heatmap.stage_window_ns(stage);
    os << "\n  {\"stage\":";
    if (stage == kNoStage) {
      os << -1;
    } else {
      os << stage;
    }
    os << ",\"window_ns\":" << window
       << ",\"max_flows\":" << heatmap.max_flows_in_stage(stage)
       << ",\"links\":[";
    bool first_link = true;
    for (; it != cells.end() && it->first.stage == stage; ++it) {
      const HeatmapKey& key = it->first;
      const HeatmapCell& cell = it->second;
      if (!first_link) os << ',';
      first_link = false;
      double util = 0.0;
      if (cell.busy_ns > 0 && window > 0) {
        util = std::min(1.0, static_cast<double>(cell.busy_ns) /
                                 static_cast<double>(window));
      } else {
        util = static_cast<double>(cell.max_sample_permille) / 1000.0;
      }
      os << "\n   {\"port\":" << key.port
         << ",\"vl\":" << static_cast<unsigned>(key.vl)
         << ",\"busy_ns\":" << cell.busy_ns << ",\"packets\":" << cell.packets
         << ",\"flows\":" << cell.flows << ",\"max_queue\":" << cell.max_queue
         << ",\"util\":";
      print_double(os, util);
      os << '}';
    }
    os << "]}";
  }
  os << "\n ]}\n}\n";
}

}  // namespace ftcf::obs
