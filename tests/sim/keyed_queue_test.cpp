#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/keyed_queue.hpp"
#include "sim/packet_sim.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"

namespace ftcf::sim {
namespace {

struct KeyedEv {
  int type = 0;
  int port = 0;
  int tag = 0;  ///< payload outside the key
};
struct KeyedEvKey {
  std::tuple<int, int> operator()(const KeyedEv& ev) const noexcept {
    return {ev.type, ev.port};
  }
};

TEST(KeyedQueue, CollidingTimestampsPopInCanonicalKeyOrder) {
  // Same-time events must pop by content key, not by push order: the PDES
  // engine's partitions can never agree on a global push sequence, so push
  // order is not reproducible across partition counts.
  KeyedEventQueue<KeyedEv, KeyedEvKey> q;
  q.push(7, {2, 9});
  q.push(7, {1, 4});
  q.push(7, {2, 3});
  q.push(7, {1, 11});
  q.push(3, {9, 9});  // earlier time still wins over every key
  std::vector<std::pair<int, int>> order;
  while (!q.empty()) {
    const KeyedEv ev = q.pop();
    order.emplace_back(ev.type, ev.port);
  }
  EXPECT_EQ(order, (std::vector<std::pair<int, int>>{
                       {9, 9}, {1, 4}, {1, 11}, {2, 3}, {2, 9}}));
}

TEST(KeyedQueue, EqualKeysFallBackToInsertionOrder) {
  KeyedEventQueue<KeyedEv, KeyedEvKey> q;
  q.push(5, {1, 1});
  q.push(5, {1, 1});
  EXPECT_EQ(q.pop().type, 1);
  EXPECT_EQ(q.now(), 5);
  EXPECT_EQ(q.processed(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(KeyedQueue, PopsInTimeOrderWithStableTies) {
  // Time order dominates; events with equal keys at one instant pop in
  // push order.
  KeyedEventQueue<KeyedEv, KeyedEvKey> q;
  q.push(5, {1, 1, 50});
  q.push(1, {1, 1, 10});
  q.push(5, {1, 1, 51});
  q.push(3, {1, 1, 30});
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().tag);
  EXPECT_EQ(order, (std::vector<int>{10, 30, 50, 51}));
  EXPECT_EQ(q.now(), 5);
  EXPECT_EQ(q.processed(), 4u);
}

TEST(KeyedQueue, RejectsPastScheduling) {
  KeyedEventQueue<KeyedEv, KeyedEvKey> q;
  q.push(10, {});
  (void)q.pop();
  EXPECT_THROW(q.push(5, {}), util::PreconditionError);
}

TEST(KeyedQueue, PopFromEmptyThrows) {
  KeyedEventQueue<KeyedEv, KeyedEvKey> q;
  EXPECT_THROW(q.pop(), util::PreconditionError);
}

/// The reference: a binary heap over every pending event, ordered by
/// (timestamp, key, push sequence).
template <typename Event, typename KeyFn>
class HeapQueue {
 public:
  void push(SimTime at, Event ev) {
    heap_.push(Entry{at, next_seq_++, KeyFn{}(ev), ev});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kNever : heap_.top().at;
  }
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  Event pop() {
    Entry entry = heap_.top();
    heap_.pop();
    now_ = entry.at;
    ++processed_;
    return entry.ev;
  }

 private:
  using Key = decltype(KeyFn{}(std::declval<const Event&>()));
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Key key;
    Event ev;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.at, a.key, a.seq) > std::tie(b.at, b.key, b.seq);
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

TEST(KeyedQueue, MatchesTheBinaryHeapOnRandomInterleavings) {
  // Zero-delay pushes land in the batch being drained, a narrow key range
  // makes equal keys common (only the push order then separates them), and
  // rare far-future pushes keep many distinct timestamps pending.
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    util::Xoshiro256 rng(util::derive_seed(0x6b657965, trial));
    KeyedEventQueue<KeyedEv, KeyedEvKey> bucketed;
    HeapQueue<KeyedEv, KeyedEvKey> reference;
    const std::uint64_t key_range = 1 + rng.below(6);
    int tag = 0;
    const auto push = [&](SimTime at) {
      const KeyedEv ev{static_cast<int>(rng.below(key_range)),
                       static_cast<int>(rng.below(key_range)), tag++};
      bucketed.push(at, ev);
      reference.push(at, ev);
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t action = rng.below(100);
      if (action < 55 || reference.empty()) {
        const std::uint64_t kind = rng.below(20);
        SimTime delay = static_cast<SimTime>(rng.below(4));
        if (kind == 0) delay = 0;
        if (kind == 1) delay = static_cast<SimTime>(rng.below(1'000'000'000));
        if (kind == 2) delay = SimTime{1} << 50;
        push(reference.now() + delay);
      } else {
        const KeyedEv got = bucketed.pop();
        const KeyedEv want = reference.pop();
        ASSERT_EQ(got.tag, want.tag) << "trial " << trial << " step " << step;
        ASSERT_EQ(bucketed.now(), reference.now());
      }
      ASSERT_EQ(bucketed.empty(), reference.empty());
      ASSERT_EQ(bucketed.next_time(), reference.next_time());
      ASSERT_EQ(bucketed.processed(), reference.processed());
    }
    while (!reference.empty()) {
      ASSERT_EQ(bucketed.pop().tag, reference.pop().tag) << "trial " << trial;
      ASSERT_EQ(bucketed.now(), reference.now());
      ASSERT_EQ(bucketed.next_time(), reference.next_time());
    }
    EXPECT_TRUE(bucketed.empty());
    EXPECT_EQ(bucketed.processed(), reference.processed());
  }
}

TEST(RetxBackoff, DoublesPerAttemptUntilTheCeiling) {
  EXPECT_EQ(retx_backoff_ns(500'000, 1), 500'000);
  EXPECT_EQ(retx_backoff_ns(500'000, 2), 1'000'000);
  EXPECT_EQ(retx_backoff_ns(500'000, 5), 8'000'000);
  EXPECT_EQ(retx_backoff_ns(1, 41), kRetxBackoffCeilingNs);
  EXPECT_EQ(retx_backoff_ns(1, 1'000'000), kRetxBackoffCeilingNs);
}

TEST(RetxBackoff, LargeTimeoutsClampInsteadOfOverflowing) {
  // Regression: the old `timeout_ns << min(attempt - 1, 20)` shifted a
  // 2^43 ns timeout into signed overflow (UB) by the second attempt. The
  // clamped form saturates at the documented ceiling for any input.
  const SimTime huge = SimTime{1} << 43;
  EXPECT_EQ(retx_backoff_ns(huge, 1), kRetxBackoffCeilingNs);
  EXPECT_EQ(retx_backoff_ns(huge, 2), kRetxBackoffCeilingNs);
  EXPECT_EQ(retx_backoff_ns(huge, 64), kRetxBackoffCeilingNs);
  // Every attempt count stays finite and positive even at the max timeout.
  for (std::uint32_t attempt = 1; attempt <= 128; ++attempt) {
    const SimTime wait = retx_backoff_ns(huge, attempt);
    EXPECT_GT(wait, 0);
    EXPECT_LE(wait, kRetxBackoffCeilingNs);
  }
}

TEST(Time, TransferTimeRoundsUpToOneNs) {
  EXPECT_EQ(transfer_time(0, 4000e6), 1);
  EXPECT_EQ(transfer_time(4000, 4000e6), 1000);  // 4000 B at 4 GB/s = 1 us
  EXPECT_EQ(transfer_time(2048, 3250e6), 630);
}

}  // namespace
}  // namespace ftcf::sim
