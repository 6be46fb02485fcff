#pragma once
// Event queue with integer timestamps: a sorted backlog for events
// scheduled before the clock starts, a binary heap for the rest.
//
// The discrete-event data plane (src/sim/packet_sim.hpp) advances by
// popping the earliest pending event; simulated time is a plain
// std::uint64_t nanosecond counter (`Tick`), never a double, so event
// ordering -- and therefore every simulated result -- is bit-exact
// across runs, compilers and machines.  Events carry only POD payload
// (a kind tag and one 32-bit argument); the engine owns all state and
// interprets the payload, keeping the entries 24 bytes and the queue
// allocation-free after its first growth.
//
// Same-time events fire in push order: every push stamps a strictly
// increasing sequence number that breaks timestamp ties, the property
// the determinism tests pin down.
//
// Two parts, one order.  While the queue is *loading* -- no pop since
// it was last empty -- push() appends to a plain backlog vector, and
// the first top()/pop() sorts it once by (at, seq).  Later pushes go to
// the heap, and pop() takes whichever head is earlier.  An open-loop
// simulation schedules its whole injection schedule before run(), so
// the heap then holds only the events in flight instead of sifting
// every pending injection through ~20 levels.  Because (at, seq) is a
// total order, the pop sequence equals a single heap's on every
// push/pop stream (tests/sim_event_queue_test.cpp checks this against
// an ordered set).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace hp::sim {

/// Simulated time in integer nanoseconds.
using Tick = std::uint64_t;

/// One scheduled occurrence.  `kind` and `arg` are interpreted by the
/// engine that pushed the event (e.g. packet arrival at a node vs a
/// link state change).
struct Event {
  Tick at = 0;            ///< absolute simulated time
  std::uint64_t seq = 0;  ///< push order; breaks same-tick ties FIFO
  std::uint32_t kind = 0;
  std::uint32_t arg = 0;
};

// Entries stay 24 bytes (tick + seq + packed payload) so the backlog
// sort and the heap sifts move three words per event.
HP_ASSERT_HOT_POD(Event, 24);

/// Min-queue of events ordered by (at, seq).
class EventQueue {
 public:
  /// Schedule `kind(arg)` at absolute time `at` (>= the caller's
  /// current time by convention; the queue itself does not check).
  void push(Tick at, std::uint32_t kind, std::uint32_t arg) {
    const Event e{at, next_seq_++, kind, arg};
    if (loading_) {
      backlog_.push_back(e);
      return;
    }
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// Consume the sequence number the next push would take, without
  /// scheduling anything.  An engine that settles some occurrence
  /// itself (PacketSim's channel departures) stamps it here, at the
  /// point it would have pushed, so its order against real events is
  /// exactly the order the queue would have given it.
  std::uint64_t stamp() noexcept { return next_seq_++; }

  [[nodiscard]] bool empty() const noexcept {
    return next_ == backlog_.size() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return backlog_.size() - next_ + heap_.size();
  }

  /// Capacity for `n` events scheduled before the first pop.
  void reserve(std::size_t n) { backlog_.reserve(n); }

  // HP_HOT_BEGIN(event_queue_pop)
  // One pop per simulated event: a sort of the backlog once per
  // loading phase, then two head comparisons and at most one heap sift.
  // Runs on storage push() grew; nothing here allocates.

  /// The earliest pending event.  Calling on an empty queue is a
  /// contract violation (checked in debug builds).
  [[nodiscard]] const Event& top() const {
    HP_DCHECK(!empty(), "EventQueue::top on an empty queue");
    settle();
    return backlog_first() ? backlog_[next_] : heap_.front();
  }

  /// Remove and return the earliest pending event.
  Event pop() {
    HP_DCHECK(!empty(), "EventQueue::pop on an empty queue");
    settle();
    Event e;
    if (backlog_first()) {
      e = backlog_[next_++];
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      e = heap_.back();
      heap_.pop_back();
    }
    if (next_ == backlog_.size()) {
      // Backlog consumed: drop it (capacity kept) and, once the heap is
      // empty too, start loading again.
      backlog_.clear();
      next_ = 0;
      loading_ = heap_.empty();
    }
    return e;
  }

 private:
  /// "a fires after b": the std::*_heap comparator producing a min-heap
  /// on (at, seq).  seq is unique, so this is a strict total order.
  struct After {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Close the loading phase: sort the backlog once.  std::sort, not a
  /// stable sort -- the order is total, and std::sort allocates nothing.
  void settle() const {
    if (!loading_) return;
    std::sort(backlog_.begin(), backlog_.end(),
              [](const Event& a, const Event& b) { return After{}(b, a); });
    loading_ = false;
  }

  /// Is the backlog's head the earliest pending event?
  [[nodiscard]] bool backlog_first() const noexcept {
    if (next_ == backlog_.size()) return false;
    return heap_.empty() || After{}(heap_.front(), backlog_[next_]);
  }
  // HP_HOT_END(event_queue_pop)

  // The backlog is sorted lazily by the const top(); sorting reorders
  // pending events without changing which event is earliest.
  mutable std::vector<Event> backlog_;  ///< pre-pop pushes; sorted [next_, end)
  mutable bool loading_ = true;
  std::size_t next_ = 0;  ///< first unpopped backlog entry
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hp::sim
