#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <ostream>
#include <string_view>

namespace ftcf::obs {

namespace {

/// Minimal JSON string escaper (names may contain quotes/backslashes).
std::string json_escape(std::string_view s) {
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

std::string port_name(const TraceNaming& naming, std::uint32_t port) {
  if (port < naming.port_names.size()) return naming.port_names[port];
  return "port " + std::to_string(port);
}

std::string host_name(const TraceNaming& naming, std::uint32_t host) {
  if (host < naming.host_names.size()) return naming.host_names[host];
  return "host " + std::to_string(host);
}

/// Chrome trace "ts" is in microseconds; fractional values are allowed, so
/// print ns as us with three decimals to keep full integer-ns fidelity.
void print_ts(std::ostream& os, sim::SimTime ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  /// Begin one event object; the caller appends fields via raw() and calls
  /// close(). Emits the separating comma between events.
  std::ostream& open() {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << "  {";
    return os_;
  }
  void close() { os_ << '}'; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void write_metadata(EventWriter& w, int pid, const std::string& name) {
  w.open() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}";
  w.close();
}

void write_thread_name(EventWriter& w, int pid, std::uint32_t tid,
                       const std::string& name) {
  w.open() << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
           << json_escape(name) << "\"}";
  w.close();
}

constexpr int kPidStages = 1;
constexpr int kPidLinks = 2;
constexpr int kPidSamples = 3;
constexpr int kPidHosts = 4;

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kPacketInjected: return "packet_injected";
    case EventKind::kPacketForwarded: return "packet_forwarded";
    case EventKind::kPacketDelivered: return "packet_delivered";
    case EventKind::kQueueDepth: return "queue_depth";
    case EventKind::kCreditStall: return "credit_stall";
    case EventKind::kStageBegin: return "stage_begin";
    case EventKind::kStageEnd: return "stage_end";
    case EventKind::kLinkSample: return "link_sample";
    case EventKind::kPacketDropped: return "packet_dropped";
    case EventKind::kPacketRetransmit: return "packet_retransmit";
    case EventKind::kLinkDown: return "link_down";
    case EventKind::kLinkUp: return "link_up";
  }
  return "?";
}

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(capacity_);
}

ShardedTraceRecorder::ShardedTraceRecorder(std::size_t num_shards,
                                           std::size_t capacity_per_shard) {
  shards_.reserve(num_shards == 0 ? 1 : num_shards);
  for (std::size_t i = 0; i < std::max<std::size_t>(num_shards, 1); ++i)
    shards_.emplace_back(capacity_per_shard);
}

std::size_t ShardedTraceRecorder::total_size() const noexcept {
  std::size_t n = 0;
  for (const TraceRecorder& s : shards_) n += s.size();
  return n;
}

std::vector<TraceEvent> ShardedTraceRecorder::merged() const {
  struct Tagged {
    std::uint32_t shard;
    std::uint32_t pos;
  };
  std::vector<Tagged> order;
  order.reserve(total_size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    for (std::size_t i = 0; i < shards_[s].size(); ++i)
      order.push_back({static_cast<std::uint32_t>(s),
                       static_cast<std::uint32_t>(i)});
  // stable total order (at, shard, intra-shard seq) — independent of how
  // many worker threads filled the shards.
  std::sort(order.begin(), order.end(), [this](const Tagged& x,
                                               const Tagged& y) {
    const sim::SimTime ax = shards_[x.shard].events()[x.pos].at;
    const sim::SimTime ay = shards_[y.shard].events()[y.pos].at;
    if (ax != ay) return ax < ay;
    if (x.shard != y.shard) return x.shard < y.shard;
    return x.pos < y.pos;
  });
  std::vector<TraceEvent> out;
  out.reserve(order.size());
  for (const Tagged& t : order)
    out.push_back(shards_[t.shard].events()[t.pos]);
  return out;
}

void write_chrome_trace(std::span<const TraceEvent> events,
                        std::uint64_t dropped, std::ostream& os,
                        const TraceNaming& naming) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  EventWriter w(os);

  write_metadata(w, kPidStages, "CPS stages");
  write_metadata(w, kPidLinks, "links (per-packet busy spans)");
  write_metadata(w, kPidSamples, "link samples (util %, queue depth)");
  write_metadata(w, kPidHosts, "hosts");

  // Name every track that will appear (ports/hosts referenced by events).
  std::map<std::uint32_t, bool> link_tracks;  // port -> has samples too
  std::map<std::uint32_t, bool> host_tracks;
  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::kPacketForwarded:
      case EventKind::kQueueDepth:
      case EventKind::kCreditStall:
      case EventKind::kPacketDropped:
      case EventKind::kLinkDown:
      case EventKind::kLinkUp:
        link_tracks.emplace(ev.a, false);
        break;
      case EventKind::kLinkSample:
        link_tracks[ev.a] = true;
        break;
      case EventKind::kPacketInjected:
      case EventKind::kPacketDelivered:
      case EventKind::kPacketRetransmit:
        host_tracks.emplace(ev.a, false);
        break;
      default:
        break;
    }
  }
  for (const auto& [port, _] : link_tracks)
    write_thread_name(w, kPidLinks, port, port_name(naming, port));
  for (const auto& [host, _] : host_tracks)
    write_thread_name(w, kPidHosts, host, host_name(naming, host));

  // Pair stage begin/end into "X" spans; unmatched begins stay markers only.
  std::map<std::uint32_t, sim::SimTime> stage_begun;

  for (const TraceEvent& ev : events) {
    switch (ev.kind) {
      case EventKind::kStageBegin: {
        stage_begun[ev.a] = ev.at;
        auto& s = w.open();
        s << "\"name\":\"stage " << ev.a
          << " begin\",\"ph\":\"i\",\"s\":\"g\",\"pid\":" << kPidStages
          << ",\"tid\":0,\"ts\":";
        print_ts(s, ev.at);
        w.close();
        break;
      }
      case EventKind::kStageEnd: {
        const auto it = stage_begun.find(ev.a);
        if (it == stage_begun.end()) break;
        auto& s = w.open();
        s << "\"name\":\"CPS stage " << ev.a << "\",\"ph\":\"X\",\"pid\":"
          << kPidStages << ",\"tid\":0,\"ts\":";
        print_ts(s, it->second);
        s << ",\"dur\":";
        print_ts(s, ev.at - it->second);
        w.close();
        stage_begun.erase(it);
        break;
      }
      case EventKind::kPacketForwarded: {
        auto& s = w.open();
        s << "\"name\":\"m" << ev.b << "#" << ev.c << "\",\"ph\":\"X\",\"pid\":"
          << kPidLinks << ",\"tid\":" << ev.a << ",\"ts\":";
        print_ts(s, ev.at);
        s << ",\"dur\":";
        print_ts(s, ev.dur);
        if (ev.stage != kNoStage || ev.vl != 0) {
          s << ",\"args\":{";
          if (ev.stage != kNoStage) {
            s << "\"stage\":" << ev.stage;
            if (ev.vl != 0) s << ',';
          }
          if (ev.vl != 0) s << "\"vl\":" << static_cast<unsigned>(ev.vl);
          s << '}';
        }
        w.close();
        break;
      }
      case EventKind::kLinkSample: {
        auto& s = w.open();
        s << "\"name\":\"" << json_escape(port_name(naming, ev.a))
          << "\",\"ph\":\"C\",\"pid\":" << kPidSamples << ",\"tid\":0,\"ts\":";
        print_ts(s, ev.at);
        s << ",\"args\":{\"util%\":" << ev.b / 10 << '.' << ev.b % 10
          << ",\"queue\":" << ev.c << '}';
        w.close();
        break;
      }
      case EventKind::kQueueDepth: {
        auto& s = w.open();
        s << "\"name\":\"queue depth " << ev.b
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kPidLinks
          << ",\"tid\":" << ev.a << ",\"ts\":";
        print_ts(s, ev.at);
        w.close();
        break;
      }
      case EventKind::kCreditStall: {
        auto& s = w.open();
        s << "\"name\":\"credit stall\",\"ph\":\"i\",\"s\":\"t\",\"pid\":"
          << kPidLinks << ",\"tid\":" << ev.a << ",\"ts\":";
        print_ts(s, ev.at);
        w.close();
        break;
      }
      case EventKind::kPacketInjected:
      case EventKind::kPacketDelivered: {
        auto& s = w.open();
        s << "\"name\":\""
          << (ev.kind == EventKind::kPacketInjected ? "inject" : "deliver")
          << " m" << ev.b << "#" << ev.c
          << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << kPidHosts
          << ",\"tid\":" << ev.a << ",\"ts\":";
        print_ts(s, ev.at);
        w.close();
        break;
      }
      default:
        break;
    }
  }
  os << "\n],\"otherData\":{\"dropped_events\":" << dropped << "}}\n";
}

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& os,
                        const TraceNaming& naming) {
  write_chrome_trace(std::span<const TraceEvent>(recorder.events()),
                     recorder.dropped(), os, naming);
}

void write_trace_csv(std::span<const TraceEvent> events, std::ostream& os) {
  os << "ts_ns,kind,a,b,c,dur_ns,vl,stage\n";
  for (const TraceEvent& ev : events) {
    os << ev.at << ',' << event_kind_name(ev.kind) << ',' << ev.a << ','
       << ev.b << ',' << ev.c << ',' << ev.dur << ','
       << static_cast<unsigned>(ev.vl) << ',';
    if (ev.stage == kNoStage) {
      os << "-1";
    } else {
      os << ev.stage;
    }
    os << '\n';
  }
}

void write_trace_csv(const TraceRecorder& recorder, std::ostream& os) {
  write_trace_csv(std::span<const TraceEvent>(recorder.events()), os);
}

}  // namespace ftcf::obs
