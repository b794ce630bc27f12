// TraceRecorder and Chrome-trace exporter: event ordering is preserved,
// overflow drops-and-counts without reallocating, and the exported JSON is
// well-formed trace-event format a Chrome/Perfetto loader would accept.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "cps/generators.hpp"
#include "obs/sim_hooks.hpp"
#include "obs/trace.hpp"
#include "routing/dmodk.hpp"
#include "sim/packet_sim.hpp"
#include "topology/obs_names.hpp"
#include "topology/presets.hpp"

namespace ftcf::obs {
namespace {

TraceEvent make_event(sim::SimTime at, EventKind kind, std::uint32_t a = 0) {
  TraceEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.a = a;
  return ev;
}

TEST(TraceRecorder, PreservesInsertionOrder) {
  TraceRecorder rec(16);
  for (std::uint32_t i = 0; i < 10; ++i)
    rec.record(make_event(i * 100, EventKind::kPacketInjected, i));
  ASSERT_EQ(rec.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(rec.events()[i].at, static_cast<sim::SimTime>(i) * 100);
    EXPECT_EQ(rec.events()[i].a, i);
  }
}

TEST(TraceRecorder, OverflowKeepsFirstAndCountsDrops) {
  TraceRecorder rec(4);
  const auto* data_before = rec.events().data();
  for (std::uint32_t i = 0; i < 10; ++i)
    rec.record(make_event(i, EventKind::kPacketInjected, i));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Keep-first policy: the head of the run survives.
  EXPECT_EQ(rec.events().front().a, 0u);
  EXPECT_EQ(rec.events().back().a, 3u);
  // The buffer was reserved at construction — overflow never reallocates.
  EXPECT_EQ(rec.events().data(), data_before);
}

TEST(TraceExport, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(EventKind::kLinkUp); ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_STRNE(name, "?") << "kind " << k;
  }
}

// Minimal structural JSON check (no parser dependency): balanced braces and
// brackets outside of strings, with escapes honored.
void expect_balanced_json(const std::string& text) {
  int depth_obj = 0;
  int depth_arr = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      else if (ch == '"') in_string = false;
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, ChromeJsonIsWellFormed) {
  TraceRecorder rec(128);
  rec.record(make_event(0, EventKind::kStageBegin, 0));
  rec.record(make_event(100, EventKind::kPacketInjected, 2));
  TraceEvent fwd = make_event(200, EventKind::kPacketForwarded, 5);
  fwd.dur = 512;
  fwd.b = 7;
  fwd.c = 3;
  rec.record(fwd);
  rec.record(make_event(300, EventKind::kQueueDepth, 5));
  rec.record(make_event(400, EventKind::kCreditStall, 5));
  TraceEvent sample = make_event(500, EventKind::kLinkSample, 5);
  sample.b = 987;  // 98.7 %
  sample.c = 2;
  rec.record(sample);
  rec.record(make_event(600, EventKind::kPacketDelivered, 3));
  rec.record(make_event(700, EventKind::kStageEnd, 0));

  TraceNaming naming;
  naming.port_names = {"p0", "p1", "p2", "p3", "p4", "leaf \"5\" up"};
  std::ostringstream os;
  write_chrome_trace(rec, os, naming);
  const std::string json = os.str();

  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Stage begin/end became one complete span.
  EXPECT_NE(json.find("\"CPS stage 0\""), std::string::npos);
  // Names pass through the escaper (the raw quote must not survive).
  EXPECT_NE(json.find("leaf \\\"5\\\" up"), std::string::npos);
  EXPECT_EQ(json.find("leaf \"5\" up"), std::string::npos);
  // The link sample became a counter event with both series.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"util%\":98.7"), std::string::npos);
}

TEST(TraceExport, ReportsDroppedEvents) {
  TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i)
    rec.record(make_event(i, EventKind::kPacketInjected));
  std::ostringstream os;
  write_chrome_trace(rec, os);
  EXPECT_NE(os.str().find("\"dropped_events\":3"), std::string::npos);
}

TEST(TraceExport, CsvHasHeaderAndOneLinePerEvent) {
  TraceRecorder rec(8);
  rec.record(make_event(10, EventKind::kPacketInjected, 1));
  rec.record(make_event(20, EventKind::kPacketDelivered, 1));
  std::ostringstream os;
  write_trace_csv(rec, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("ts_ns,kind,a,b,c,dur_ns,vl,stage\n", 0), 0u);
  std::size_t lines = 0;
  for (const char ch : csv)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_NE(csv.find("packet_injected"), std::string::npos);
}

// End-to-end: a real packet-sim run on a paper preset emits a monotone,
// stage-bracketed event stream and a loadable export.
TEST(TraceExport, PacketSimRunProducesOrderedBracketedTrace) {
  const topo::Fabric fabric(topo::paper_cluster(16));
  const auto tables = route::DModKRouter{}.compute(fabric);
  sim::PacketSim psim(fabric, tables);

  TraceRecorder rec;
  SimObserver observer;
  observer.trace = &rec;
  observer.sample_period_ns = 1000;
  psim.set_observer(observer);

  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto n = fabric.num_hosts();
  const auto result =
      psim.run(sim::traffic_from_cps(cps::recursive_doubling(n), ordering, n,
                                     16 * 1024),
               sim::Progression::kSynchronized);
  ASSERT_GT(result.messages_delivered, 0u);
  ASSERT_GT(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);

  // Timestamps are monotone non-decreasing (the recorder is fed in event
  // order) and stage begins/ends alternate correctly.
  sim::SimTime prev = 0;
  int open_stage = -1;
  std::size_t spans = 0;
  for (const TraceEvent& ev : rec.events()) {
    EXPECT_GE(ev.at, prev);
    prev = ev.at;
    if (ev.kind == EventKind::kStageBegin) {
      EXPECT_EQ(open_stage, -1) << "stage begun while another is open";
      open_stage = static_cast<int>(ev.a);
    } else if (ev.kind == EventKind::kStageEnd) {
      EXPECT_EQ(open_stage, static_cast<int>(ev.a));
      open_stage = -1;
      ++spans;
    }
  }
  EXPECT_EQ(open_stage, -1);
  EXPECT_EQ(spans, cps::recursive_doubling(n).num_stages());

  std::ostringstream os;
  write_chrome_trace(rec, os, topo::trace_naming(fabric));
  expect_balanced_json(os.str());
  EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
}

}  // namespace
}  // namespace ftcf::obs
