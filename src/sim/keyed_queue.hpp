// The packet engines' event queue: it stores plain event records (the
// engine dispatches through one switch), avoiding per-event allocations in
// multi-million-event runs.
#pragma once

#include <cstdint>
#include <queue>
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
/// order. Events whose keys compare equal must commute; the push-order seq
/// remains as a final stabilizer for exact duplicates.
///
/// KeyFn must be a stateless callable returning a totally ordered value
/// (e.g. a std::tuple of integral fields).
template <typename Event, typename KeyFn>
class KeyedEventQueue {
 public:
  void push(SimTime at, Event ev) {
    util::expects(at >= now_, "cannot schedule an event in the past");
    heap_.push(Entry{at, next_seq_++, KeyFn{}(ev), ev});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Timestamp of the next event to pop; kNever when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? kNever : heap_.top().at;
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  /// Pop the next event, advancing now(). Precondition: !empty().
  Event pop() {
    util::expects(!heap_.empty(), "pop from empty event queue");
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
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.key != b.key) return b.key < a.key;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace ftcf::sim
