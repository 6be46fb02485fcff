// Differential test of the event queue: random push/pop streams run
// through sim::EventQueue and through a reference ordered set keyed on
// (tick, push sequence) must pop identical event sequences.  The
// streams mix every shape the engine produces -- a bulk load before the
// first pop (the injection schedule), pushes interleaved with pops (the
// event loop), tick ties (same-time arrivals), and refills after the
// queue ran dry (a second run() fed in phases), with stamp() calls in
// between as PacketSim makes them for channel departures.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

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

  void pop_one() {
    ASSERT_FALSE(reference_.empty());
    ASSERT_FALSE(queue_.empty());
    const sim::Event want = reference_.pop();
    EXPECT_EQ(queue_.top().seq, want.seq);
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
  // from an empty queue -- plus a top() on a freshly loaded queue.
  Differential d(99);
  for (int i = 0; i < 1000; ++i) {
    d.push_many(1, 5);
    d.pop_one();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  sim::EventQueue q;
  q.push(7, 1, 10);
  q.push(3, 2, 20);
  EXPECT_EQ(q.top().arg, 20u);
  q.push(3, 3, 30);  // same tick, later push: after arg 20
  EXPECT_EQ(q.pop().arg, 20u);
  EXPECT_EQ(q.pop().arg, 30u);
  EXPECT_EQ(q.pop().arg, 10u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
