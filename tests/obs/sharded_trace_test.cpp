// ShardedTraceRecorder: shard-private capture and the deterministic
// (timestamp, shard, sequence) merge.
#include <gtest/gtest.h>

#include "obs/trace.hpp"

namespace {

using namespace ftcf;
using obs::EventKind;
using obs::ShardedTraceRecorder;
using obs::TraceEvent;

TraceEvent at_time(sim::SimTime at, std::uint32_t a = 0) {
  TraceEvent ev;
  ev.at = at;
  ev.kind = EventKind::kPacketInjected;
  ev.a = a;
  return ev;
}

TEST(ShardedTrace, MergeSortsByTimestampThenShardThenSequence) {
  ShardedTraceRecorder rec(3, 16);
  // Shard 2 records first in wall-clock order, but merge order must depend
  // only on content: timestamp first, then shard index, then intra-shard
  // position.
  rec.shard(2).record(at_time(5, 20));
  rec.shard(0).record(at_time(10, 1));
  rec.shard(0).record(at_time(5, 2));
  rec.shard(1).record(at_time(5, 10));
  rec.shard(1).record(at_time(5, 11));

  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 5u);
  // t=5: shard 0 (a=2), then shard 1 in recording order, then shard 2.
  EXPECT_EQ(merged[0].a, 2u);
  EXPECT_EQ(merged[1].a, 10u);
  EXPECT_EQ(merged[2].a, 11u);
  EXPECT_EQ(merged[3].a, 20u);
  EXPECT_EQ(merged[4].a, 1u);  // t=10 last
}

TEST(ShardedTrace, MergeIsIndependentOfRecordingInterleaving) {
  // Two interleavings of the same per-shard content merge identically.
  ShardedTraceRecorder a(2, 8);
  a.shard(0).record(at_time(1, 1));
  a.shard(1).record(at_time(1, 2));
  a.shard(0).record(at_time(2, 3));

  ShardedTraceRecorder b(2, 8);
  b.shard(1).record(at_time(1, 2));
  b.shard(0).record(at_time(1, 1));
  b.shard(0).record(at_time(2, 3));

  const auto ma = a.merged();
  const auto mb = b.merged();
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].at, mb[i].at);
    EXPECT_EQ(ma[i].a, mb[i].a);
  }
}

TEST(ShardedTrace, TotalsAggregateAcrossShards) {
  ShardedTraceRecorder rec(2, 2);
  for (int i = 0; i < 4; ++i) rec.shard(0).record(at_time(i));
  rec.shard(1).record(at_time(9));
  EXPECT_EQ(rec.total_size(), 3u);       // 2 kept in shard 0, 1 in shard 1
  EXPECT_EQ(rec.shard(0).dropped(), 2u);  // overflow stays in its shard
  EXPECT_EQ(rec.shard(1).dropped(), 0u);
  EXPECT_EQ(rec.merged().size(), 3u);
}

TEST(ShardedTrace, EventCarriesVlAndStage) {
  TraceEvent ev;
  ev.kind = EventKind::kPacketForwarded;
  ev.vl = 3;
  ev.stage = 7;
  ShardedTraceRecorder rec(1, 4);
  rec.shard(0).record(ev);
  const auto merged = rec.merged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].vl, 3u);
  EXPECT_EQ(merged[0].stage, 7u);
  // The struct must stay one half cache line: vl/stage fill old padding.
  static_assert(sizeof(TraceEvent) == 32);
}

}  // namespace
