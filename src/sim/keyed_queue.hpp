// The packet engine's event queue: plain event records (the engine
// dispatches through one switch), grouped into one bucket per pending
// timestamp.
//
// The engine moves in lock-step batches: nearly every pop is at the same
// timestamp as the previous one, and an instant holds hundreds to thousands
// of events. A binary heap over all events pays O(log n) per event to order
// what are really per-instant batches, so the queue orders timestamps and
// batches separately:
//   * the distinct pending timestamps sit in a small min-heap, with an
//     open-addressing index from timestamp to bucket;
//   * a push appends the event to its timestamp's bucket, unsorted;
//   * when a timestamp becomes current its events are keyed and sorted
//     once by (key, push order), then drained in O(1) per pop;
//   * a push at now() while that batch drains (rare) is inserted into the
//     sorted remainder.
// A drained bucket releases its storage: buckets are reused for later
// timestamps of any size, so keeping each one's largest batch would hold
// several times the pending events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/expects.hpp"

namespace ftcf::sim {

/// Event queue with a *canonical* total order: entries pop by
/// (timestamp, KeyFn(event), push order). A FIFO tie-break would be stable,
/// but the tie order it realizes is the *push* order — a schedule-history
/// artifact that a partitioned simulator cannot reproduce (two logical
/// processes pushing the same instant's events never agree on a global push
/// sequence). KeyFn derives the tie order from event *content* instead, so
/// any execution that delivers the same event set pops it in the same
/// order. Events whose keys compare equal must commute; the push order
/// remains as a final stabilizer for exact duplicates.
///
/// KeyFn must be a stateless callable returning a totally ordered value
/// (e.g. a std::tuple of integral fields).
template <typename Event, typename KeyFn>
class KeyedEventQueue {
 public:
  /// Precondition: at >= now().
  void push(SimTime at, Event ev) {
    util::expects(at >= now_, "cannot schedule an event in the past");
    ++size_;
    if (at == now_ && cur_ != kNone) {
      // The current batch is draining: insert into its sorted remainder.
      // The new event's push order is the largest yet, so it goes after
      // every equal key.
      std::vector<Event>& batch = buckets_[cur_];
      const Slot slot{KeyFn{}(ev), static_cast<std::uint32_t>(batch.size())};
      batch.push_back(ev);
      const auto rest = order_.begin() + static_cast<std::ptrdiff_t>(pos_);
      order_.insert(std::upper_bound(rest, order_.end(), slot), slot);
      return;
    }
    buckets_[bucket_at(at)].push_back(ev);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Timestamp of the next event to pop; kNever when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    if (cur_ != kNone && pos_ < order_.size()) return now_;
    return times_.empty() ? kNever : times_.front().first;
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Pop the next event, advancing now(). Precondition: !empty().
  Event pop() {
    util::expects(size_ != 0, "pop from empty event queue");
    if (cur_ == kNone || pos_ == order_.size()) advance();
    --size_;
    ++processed_;
    return buckets_[cur_][order_[pos_++].index];
  }

 private:
  using Key = decltype(KeyFn{}(std::declval<const Event&>()));
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One event's sort record. A bucket stores its events in push order, so
  /// the storage index is the push-order stabilizer.
  struct Slot {
    Key key;
    std::uint32_t index;
    friend bool operator<(const Slot& a, const Slot& b) noexcept {
      if (a.key < b.key) return true;
      if (b.key < a.key) return false;
      return a.index < b.index;
    }
  };
  struct IndexCell {
    SimTime at = 0;
    std::uint32_t bucket = kNone;  ///< kNone marks an empty cell
  };
  /// (timestamp, bucket) min-heap entry; timestamps are distinct.
  using Time = std::pair<SimTime, std::uint32_t>;

  /// Retire the drained batch (releasing its storage) and make the
  /// earliest pending timestamp current: key and sort its events once,
  /// then pops walk them in order.
  void advance() {
    if (cur_ != kNone) {
      std::vector<Event>().swap(buckets_[cur_]);
      free_.push_back(cur_);
    }
    std::pop_heap(times_.begin(), times_.end(), std::greater<>{});
    const auto [at, bucket] = times_.back();
    times_.pop_back();
    erase_index(at);
    cur_ = bucket;
    pos_ = 0;
    now_ = at;
    const std::vector<Event>& batch = buckets_[cur_];
    order_.clear();
    for (std::uint32_t i = 0; i < batch.size(); ++i)
      order_.push_back(Slot{KeyFn{}(batch[i]), i});
    std::sort(order_.begin(), order_.end());
  }

  [[nodiscard]] std::size_t cell_of(SimTime at) const noexcept {
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(at) * 0x9e3779b97f4a7c15ULL) >> 32) &
           (index_.size() - 1);
  }

  /// The bucket of future timestamp `at`, created (from the free list when
  /// possible) on first use.
  std::uint32_t bucket_at(SimTime at) {
    if (!index_.empty()) {
      for (std::size_t c = cell_of(at);; c = (c + 1) & (index_.size() - 1)) {
        if (index_[c].bucket == kNone) break;
        if (index_[c].at == at) return index_[c].bucket;
      }
    }
    std::uint32_t bucket;
    if (free_.empty()) {
      bucket = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      bucket = free_.back();
      free_.pop_back();
    }
    times_.emplace_back(at, bucket);
    std::push_heap(times_.begin(), times_.end(), std::greater<>{});
    if (2 * times_.size() > index_.size()) {
      rehash(std::max<std::size_t>(16, 4 * times_.size()));
    } else {
      insert_index(at, bucket);
    }
    return bucket;
  }

  void insert_index(SimTime at, std::uint32_t bucket) {
    std::size_t c = cell_of(at);
    while (index_[c].bucket != kNone) c = (c + 1) & (index_.size() - 1);
    index_[c] = IndexCell{at, bucket};
  }

  /// Rebuild the index from the timestamp heap at `cells` cells (a power
  /// of two at least twice the pending timestamps).
  void rehash(std::size_t cells) {
    std::size_t pow2 = 16;
    while (pow2 < cells) pow2 *= 2;
    index_.assign(pow2, IndexCell{});
    for (const auto& [at, bucket] : times_) insert_index(at, bucket);
  }

  /// Remove `at` from the linear-probing index, shifting later cells of its
  /// probe run back so lookups never stop early.
  void erase_index(SimTime at) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = cell_of(at);
    while (index_[hole].at != at || index_[hole].bucket == kNone)
      hole = (hole + 1) & mask;
    for (std::size_t c = (hole + 1) & mask; index_[c].bucket != kNone;
         c = (c + 1) & mask) {
      const std::size_t home = cell_of(index_[c].at);
      // Move c into the hole unless its home lies cyclically in (hole, c].
      if (((c - home) & mask) >= ((c - hole) & mask)) {
        index_[hole] = index_[c];
        hole = c;
      }
    }
    index_[hole] = IndexCell{};
  }

  std::vector<std::vector<Event>> buckets_;  ///< events by bucket id
  std::vector<Slot> order_;          ///< sorted slots of the current batch
  std::vector<std::uint32_t> free_;  ///< recycled (empty) bucket ids
  std::vector<Time> times_;          ///< pending timestamps (min-heap)
  std::vector<IndexCell> index_;     ///< timestamp -> bucket, future only
  std::uint32_t cur_ = kNone;        ///< bucket of now(), once popped
  std::size_t pos_ = 0;              ///< next slot of order_
  std::uint64_t size_ = 0;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace ftcf::sim
