#pragma once
// Event queue with integer timestamps: a sorted backlog for events
// scheduled before the clock starts, a monotone radix queue for the
// rest.
//
// The discrete-event data plane (src/sim/packet_sim.hpp) advances by
// popping the earliest pending event; simulated time is a plain
// std::uint64_t nanosecond counter (`Tick`), never a double, so event
// ordering -- and therefore every simulated result -- is bit-exact
// across runs, compilers and machines.  Events carry only POD payload
// (a kind tag and one 32-bit argument); the engine owns all state and
// interprets the payload, keeping the entries 24 bytes and the queue
// allocation-free once it has held its high-water mark of events.
//
// Same-time events fire in push order: every push stamps a strictly
// increasing sequence number that breaks timestamp ties, the property
// the determinism tests pin down.
//
// Two parts, one order.  While the queue is *loading* -- no pop since
// it was last empty -- push() appends to a plain backlog vector, and
// the first top()/pop() sorts it once by (at, seq).  Later pushes go to
// the radix queue, and pop() takes whichever head is earlier.  An
// open-loop simulation schedules its whole injection schedule before
// run(), so the radix queue holds only the events in flight.  Because
// (at, seq) is a total order, the pop sequence is the same as an
// ordered set's on every push/pop stream (tests/sim_event_queue_test.cpp
// checks this).
//
// The radix queue (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) works
// because simulated time never runs backwards.  It keeps a *pivot*
// tick, and an event goes into the bucket numbered by the highest bit
// in which its tick differs from the pivot: bit_width(at ^ pivot), 0
// for a tick equal to the pivot.  A 64-bit mask marks the non-empty
// buckets, so countr_zero finds the lowest one.  Each bucket records
// its minimum tick.  When bucket 0 runs dry, pop() moves the pivot to
// the lowest bucket's minimum and re-buckets that bucket's events; each
// of them lands in a strictly lower bucket, so an event moves at most
// 63 times, and in practice a few.  Buckets are singly linked lists
// through one node pool (index links, a LIFO free list), which grows
// only when more events are pending at once than ever before.
//
// Why ties stay FIFO.  Every bucket is a FIFO list.  A push carries the
// largest seq issued so far and goes to the tail, and re-bucketing
// walks a bucket head to tail into buckets that are empty (all lower
// than it), so within any bucket events of one tick appear in seq
// order.  Bucket 0 holds a single tick, so it pops in (at, seq) order
// by construction, with no comparisons -- and stamp() keeps working,
// since a stamped seq is simply one no event carries.
//
// The floor contract.  push() requires `at` at or after the floor (the
// tick of the last pop) and below 2^63, and checks both in every build.
// The pivot never passes the floor: pop() re-buckets only when the
// radix minimum is at or before the backlog's head, so the event it
// then pops sits at the new pivot.  Every pending tick is therefore at
// or after the pivot, which the bucket index relies on, and a tick
// below 2^63 keeps the index under 64, inside the mask.  A wrapped tick
// (`depart + latency` or `at + rto` past 2^64) fails the check with a
// ContractViolation instead of popping out of order.

#include <algorithm>
#include <array>
#include <bit>
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
// sort moves three words per event and a pool node is 32 bytes.
HP_ASSERT_HOT_POD(Event, 24);

/// Min-queue of events ordered by (at, seq).
class EventQueue {
 public:
  /// push() rejects ticks at or above this (see the floor contract).
  static constexpr Tick kTickLimit = Tick{1} << 63;

  /// Schedule `kind(arg)` at absolute time `at`, which must be at or
  /// after the last popped tick and below kTickLimit (checked: throws
  /// core::ContractViolation).  Returns the sequence number the event
  /// took, which is how it is told apart from others at the same tick.
  std::uint64_t push(Tick at, std::uint32_t kind, std::uint32_t arg) {
    HP_CHECK(at >= floor_ && at < kTickLimit,
             "EventQueue::push: tick before the last pop, or at/after 2^63");
    const Event e{at, next_seq_++, kind, arg};
    if (loading_) {
      backlog_.push_back(e);
      return e.seq;
    }
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = pool_[n].next;
    } else {
      HP_CHECK(pool_.size() < kNil, "EventQueue: 2^32 - 1 events pending");
      n = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{});
    }
    pool_[n].event = e;
    append(n);
    ++pending_;
    return e.seq;
  }

  /// Consume the sequence number the next push would take, without
  /// scheduling anything.  An engine that settles some occurrence
  /// itself (PacketSim's channel departures) stamps it here, at the
  /// point it would have pushed, so its order against real events is
  /// exactly the order the queue would have given it.
  std::uint64_t stamp() noexcept { return next_seq_++; }

  [[nodiscard]] bool empty() const noexcept {
    return next_ == backlog_.size() && pending_ == 0;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return backlog_.size() - next_ + pending_;
  }

  /// Capacity for `n` events scheduled before the first pop.
  void reserve(std::size_t n) { backlog_.reserve(n); }

  // HP_HOT_BEGIN(event_queue_pop)
  // One pop per simulated event: a sort of the backlog once per
  // loading phase, then a mask test, one head comparison, and now and
  // then a re-bucketing of the lowest bucket.  Runs on storage push()
  // grew; nothing here allocates.

  /// The earliest pending event.  Calling on an empty queue is a
  /// contract violation (checked in debug builds).  Moves no event
  /// between buckets, so a push at any tick from the last pop's on
  /// stays valid after it.
  [[nodiscard]] const Event& top() const {
    HP_DCHECK(!empty(), "EventQueue::top on an empty queue");
    settle();
    if (mask_ == 0) return backlog_[next_];
    // The first event at the lowest bucket's minimum tick is the radix
    // queue's head: ties sit in seq order within a bucket.
    const Bucket& low = buckets_[lowest()];
    std::uint32_t n = low.head;
    while (pool_[n].event.at != low.min) n = pool_[n].next;
    const Event& radix = pool_[n].event;
    if (next_ == backlog_.size() || earlier(radix, backlog_[next_])) {
      return radix;
    }
    return backlog_[next_];
  }

  /// Remove and return the earliest pending event.
  Event pop() {
    HP_DCHECK(!empty(), "EventQueue::pop on an empty queue");
    settle();
    if ((mask_ & 1) == 0 && mask_ != 0) {
      // Bucket 0 is dry.  Re-bucket the lowest bucket unless the
      // backlog's head comes first, so the pivot never passes the tick
      // this pop returns.
      const unsigned low = lowest();
      if (next_ == backlog_.size() || buckets_[low].min <= backlog_[next_].at) {
        redistribute(low);
      }
    }
    Event e;
    if ((mask_ & 1) != 0 && (next_ == backlog_.size() ||
                             earlier(pool_[buckets_[0].head].event,
                                     backlog_[next_]))) {
      const std::uint32_t n = buckets_[0].head;
      Node& node = pool_[n];
      e = node.event;
      buckets_[0].head = node.next;
      if (node.next == kNil) mask_ &= ~std::uint64_t{1};
      node.next = free_;
      free_ = n;
      --pending_;
    } else {
      e = backlog_[next_++];
    }
    floor_ = e.at;
    if (next_ == backlog_.size()) {
      // Backlog consumed: drop it (capacity kept) and, once the radix
      // queue is empty too, start loading again.
      backlog_.clear();
      next_ = 0;
      loading_ = pending_ == 0;
    }
    return e;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One pool slot: an event and the index of the next one in its
  /// bucket (or in the free list).
  struct Node {
    Event event;
    std::uint32_t next = kNil;
  };

  /// A FIFO list of nodes.  `min` is meaningful while the bucket's
  /// mask bit is set.
  struct Bucket {
    Tick min = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// (at, seq) order; seq is unique, so this is a strict total order.
  static bool earlier(const Event& a, const Event& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// The lowest non-empty bucket (mask_ must be non-zero).
  [[nodiscard]] unsigned lowest() const noexcept {
    return static_cast<unsigned>(std::countr_zero(mask_));
  }

  /// Link node `n` at the tail of the bucket its tick falls in.
  void append(std::uint32_t n) noexcept {
    Node& node = pool_[n];
    node.next = kNil;
    const Tick at = node.event.at;
    const auto b = static_cast<unsigned>(std::bit_width(at ^ pivot_));
    const std::uint64_t bit = std::uint64_t{1} << b;
    Bucket& bucket = buckets_[b];
    if ((mask_ & bit) != 0) {
      pool_[bucket.tail].next = n;
      bucket.tail = n;
      bucket.min = std::min(bucket.min, at);
    } else {
      bucket = Bucket{at, n, n};
      mask_ |= bit;
    }
  }

  /// Move the pivot to bucket `b`'s minimum and re-bucket its events,
  /// head to tail.  Every bucket below `b` is empty and each event
  /// lands in one of them, so the FIFO order of equal ticks survives.
  void redistribute(unsigned b) {
    pivot_ = buckets_[b].min;
    mask_ &= ~(std::uint64_t{1} << b);
    std::uint32_t n = buckets_[b].head;
    while (n != kNil) {
      const std::uint32_t next = pool_[n].next;
      HP_DCHECK(static_cast<unsigned>(
                    std::bit_width(pool_[n].event.at ^ pivot_)) < b,
                "EventQueue: re-bucketed event did not move down");
      append(n);
      n = next;
    }
  }

  /// Close the loading phase: sort the backlog once.  std::sort, not a
  /// stable sort -- the order is total, and std::sort allocates nothing.
  void settle() const {
    if (!loading_) return;
    std::sort(backlog_.begin(), backlog_.end(),
              [](const Event& a, const Event& b) { return earlier(a, b); });
    loading_ = false;
  }
  // HP_HOT_END(event_queue_pop)

  // The backlog is sorted lazily by the const top(); sorting reorders
  // pending events without changing which event is earliest.
  mutable std::vector<Event> backlog_;  ///< pre-pop pushes; sorted [next_, end)
  mutable bool loading_ = true;
  std::size_t next_ = 0;  ///< first unpopped backlog entry

  std::vector<Node> pool_;  ///< radix nodes, linked by index
  std::uint32_t free_ = kNil;  ///< head of the free-node list
  std::size_t pending_ = 0;    ///< events in the radix buckets
  std::array<Bucket, 64> buckets_{};
  std::uint64_t mask_ = 0;  ///< bit b set iff bucket b is non-empty
  Tick pivot_ = 0;  ///< radix base; at or before every pending tick
  Tick floor_ = 0;  ///< tick of the last pop; push() rejects earlier
  std::uint64_t next_seq_ = 0;
};

}  // namespace hp::sim
