// Differential test of the event queue: random push/pop streams run
// through sim::EventQueue and through a reference ordered set keyed on
// (tick, push sequence) must pop identical event sequences.  The
// streams mix every shape the engine produces -- a bulk load before the
// first pop (the injection schedule), pushes interleaved with pops (the
// event loop), tick ties (same-time arrivals), and refills after the
// queue ran dry (a second run() fed in phases), with stamp() calls in
// between as PacketSim makes them for channel departures.  Further
// streams aim at the radix queue's edges: ticks on either side of a
// power of two (so the bucket index jumps), ticks near 2^62, pushes at
// the floor right after a re-bucketing, backlog heads tying the radix
// minimum, and pushes at the pending head's tick.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "sim/event_queue.hpp"

namespace sim = hp::sim;

namespace {

/// The same interface backed by std::set: obviously ordered by
/// (at, seq), obviously FIFO on ties.
class ReferenceQueue {
 public:
  void push(sim::Tick at, std::uint32_t arg) {
    const std::uint64_t seq = next_seq_++;
    set_.insert({at, seq});
    arg_of_.push_back(arg);
  }
  void stamp() {
    ++next_seq_;
    arg_of_.push_back(0);
  }
  [[nodiscard]] bool empty() const { return set_.empty(); }
  [[nodiscard]] std::size_t size() const { return set_.size(); }
  /// Tick of the earliest pending event.
  [[nodiscard]] sim::Tick head_at() const { return set_.begin()->first; }
  sim::Event pop() {
    const auto [at, seq] = *set_.begin();
    set_.erase(set_.begin());
    return sim::Event{at, seq, 0, arg_of_[seq]};
  }

 private:
  std::set<std::pair<sim::Tick, std::uint64_t>> set_;
  std::vector<std::uint32_t> arg_of_;  ///< indexed by seq
  std::uint64_t next_seq_ = 0;
};

/// Drives both queues through one random stream and compares every
/// pop (tick, seq and payload) and every size.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  /// Push `n` events at now + [0, spread) -- a narrow spread forces
  /// tick ties.
  void push_many(std::size_t n, sim::Tick spread) {
    std::uniform_int_distribution<sim::Tick> offset(0, spread - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const sim::Tick at = now_ + offset(rng_);
      queue_.push(at, /*kind=*/0, next_arg_);
      reference_.push(at, next_arg_);
      ++next_arg_;
    }
  }

  /// Push one event at an exact tick (at or after the last pop).
  void push_at(sim::Tick at) {
    queue_.push(at, /*kind=*/0, next_arg_);
    reference_.push(at, next_arg_);
    ++next_arg_;
  }

  /// Push at the pending head's tick, read from the reference: the new
  /// event ties the head and must pop after it.
  void push_at_top() {
    ASSERT_FALSE(reference_.empty());
    push_at(reference_.head_at());
  }

  void pop_one() {
    ASSERT_FALSE(reference_.empty());
    ASSERT_FALSE(queue_.empty());
    const sim::Event want = reference_.pop();
    const sim::Event got = queue_.pop();
    ASSERT_EQ(got.at, want.at) << "pop #" << pops_;
    ASSERT_EQ(got.seq, want.seq) << "pop #" << pops_;
    ASSERT_EQ(got.arg, want.arg) << "pop #" << pops_;
    ASSERT_EQ(queue_.size(), reference_.size());
    now_ = got.at;  // the engine never schedules into the past
    ++pops_;
  }

  /// The event loop's shape: each pop schedules 0-3 successors, and
  /// one pop in three stamps a sequence number it never pushes.
  void churn(std::size_t pops, sim::Tick spread) {
    std::uniform_int_distribution<int> fanout(0, 3);
    for (std::size_t i = 0; i < pops && !reference_.empty(); ++i) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
      if (rng_() % 3 == 0) {
        (void)queue_.stamp();
        reference_.stamp();
      }
      push_many(static_cast<std::size_t>(fanout(rng_)), spread);
    }
  }

  void drain() {
    while (!reference_.empty()) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue_.empty());
  }

  [[nodiscard]] std::uint64_t pops() const { return pops_; }
  [[nodiscard]] sim::Tick now() const { return now_; }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
  sim::EventQueue queue_;
  ReferenceQueue reference_;
  sim::Tick now_ = 0;
  std::uint32_t next_arg_ = 0;
  std::uint64_t pops_ = 0;
};

TEST(EventQueueDifferential, RandomStreamsPopLikeAnOrderedSet) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    Differential d(seed);
    for (int phase = 0; phase < 4; ++phase) {
      // Bulk load before the first pop: wide spread, then a narrow one
      // so the load itself holds tick ties.
      d.push_many(2000 + d.rng()() % 2000, 1'000'000);
      d.push_many(500, 3);
      // Pushes between pops, some landing on the current tick.
      d.churn(3000, 1);
      d.churn(3000, 50);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      // Pop a few, push a few, pop everything: the queue empties and
      // the next phase refills it from scratch.
      d.churn(200, 1'000'000);
      d.drain();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    EXPECT_GT(d.pops(), 4u * 5000u);
  }
}

TEST(EventQueueDifferential, SingleEventRefillsAlternate) {
  // The smallest refill cycle: one push, one pop, repeatedly, each time
  // from an empty queue -- plus a tie pushed into a loaded backlog.
  Differential d(99);
  for (int i = 0; i < 1000; ++i) {
    d.push_many(1, 5);
    d.pop_one();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  sim::EventQueue q;
  q.push(7, 1, 10);
  q.push(3, 2, 20);
  q.push(3, 3, 30);  // same tick, later push: after arg 20
  EXPECT_EQ(q.pop().arg, 20u);
  EXPECT_EQ(q.pop().arg, 30u);
  EXPECT_EQ(q.pop().arg, 10u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueDifferential, PowerOfTwoBoundaries) {
  // A far-future event waits in the backlog the whole time, so the
  // queue never reloads and every later push goes to the radix queue.
  // For each k the floor becomes 2^k - 1 by a pop; the next push at
  // 2^k differs from it in k + 1 bits, and pushes at the floor land in
  // bucket 0 right after the re-bucketing that set the pivot.
  Differential d(7);
  d.push_at(0);
  d.push_at(sim::Tick{1} << 62);
  d.pop_one();
  for (int k = 1; k < 62; ++k) {
    SCOPED_TRACE(k);
    const sim::Tick p = sim::Tick{1} << k;
    d.push_at(p - 1);
    d.push_at(p + 1);
    d.pop_one();  // floor p - 1
    d.push_at(p);
    d.push_at(p - 1);  // at the floor, after the re-bucketing
    d.push_at(p - 1);
    d.push_at(2 * p - 1);
    for (int i = 0; i < 5; ++i) d.pop_one();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(d.now(), 2 * p - 1);
  }
  // Near 2^62: the backlog head ties a radix tick there, and the last
  // tick a push accepts sits just below 2^63.
  const sim::Tick top = sim::Tick{1} << 62;
  d.push_at(top - 1);
  d.push_at(top);
  d.push_at(top + 1);
  d.push_at(sim::EventQueue::kTickLimit - 1);
  d.drain();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(d.now(), sim::EventQueue::kTickLimit - 1);
}

TEST(EventQueueDifferential, RandomStreamsAroundPowersOfTwo) {
  // Each push picks a power of two above the clock and lands one tick
  // before it, on it or after it -- or exactly at the clock -- so
  // pivots and floors keep sitting on 2^k - 1 and 2^k.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    Differential d(seed);
    std::mt19937_64& rng = d.rng();
    const auto push_near_power = [&] {
      if (rng() % 4 == 0) {
        d.push_at(d.now());
        return;
      }
      const int low = std::max(1, static_cast<int>(std::bit_width(d.now())));
      const int k = low + static_cast<int>(rng() % 4);
      if (k >= 62) {
        d.push_at(d.now() + rng() % 3);
        return;
      }
      const sim::Tick p = sim::Tick{1} << k;
      const sim::Tick at = p - 1 + rng() % 3;
      d.push_at(std::max(at, d.now()));
    };
    for (int i = 0; i < 64; ++i) push_near_power();  // the backlog
    for (int i = 0; i < 20000; ++i) {
      d.pop_one();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      for (std::uint64_t n = rng() % 3; n > 0; --n) push_near_power();
      if (rng() % 5 == 0) push_near_power();
    }
    d.drain();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(EventQueueDifferential, BacklogHeadTiesRadixMinimum) {
  // Backlog and radix queue hold events at the same ticks; on each tie
  // the backlog's event was pushed first, so it pops first.
  Differential d(11);
  for (const sim::Tick at : {10, 20, 20, 30, 40, 40}) d.push_at(at);
  d.pop_one();  // 10 from the backlog; the queue stops loading
  for (const sim::Tick at : {20, 20, 30, 30, 40, 50}) d.push_at(at);
  d.pop_one();
  d.push_at(20);  // ties both heads again, pushed last
  d.drain();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  // The same at scale: a bulk load on a few ticks, then churn on those
  // ticks so radix minima keep meeting backlog heads.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    Differential r(seed);
    r.push_many(3000, 64);
    r.churn(6000, 8);
    r.drain();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(EventQueueDifferential, PushAtTopTick) {
  // Pushing at the pending head's tick -- which may be past the last
  // pop -- is legal and pops after the head it ties.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE(seed);
    Differential d(seed);
    d.push_many(1000, 100'000);
    for (int i = 0; i < 5000; ++i) {
      d.push_at_top();
      d.pop_one();
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      d.push_many(d.rng()() % 2, 100'000);
    }
    d.drain();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

TEST(Contracts, EventQueueRejectsPushBeforeFloor) {
  sim::EventQueue q;
  q.push(10, 0, 1);
  q.push(20, 0, 2);
  EXPECT_EQ(q.pop().at, 10u);  // floor 10
  EXPECT_THROW(q.push(9, 0, 3), hp::core::ContractViolation);
  EXPECT_THROW(q.push(0, 0, 3), hp::core::ContractViolation);
  EXPECT_NO_THROW(q.push(10, 0, 4));
  EXPECT_THROW(q.push(sim::EventQueue::kTickLimit, 0, 5),
               hp::core::ContractViolation);
  EXPECT_THROW(q.push(std::numeric_limits<sim::Tick>::max(), 0, 5),
               hp::core::ContractViolation);
  EXPECT_NO_THROW(q.push(sim::EventQueue::kTickLimit - 1, 0, 6));
  // A rejected push takes no sequence number and schedules nothing.
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().arg, 4u);
  EXPECT_EQ(q.pop().arg, 2u);
  EXPECT_EQ(q.pop().arg, 6u);
  EXPECT_TRUE(q.empty());
  // The floor outlives an empty queue: reloading cannot go back either.
  EXPECT_THROW(q.push(20, 0, 7), hp::core::ContractViolation);
  EXPECT_EQ(q.stamp(), 4u);
}

}  // namespace
