#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/latency.h"
#include "sim/simulator.h"

namespace rjoin::sim {
namespace {

// Wraps a closure in a pooled Control envelope at absolute time `when`.
core::EnvelopeRef ControlAt(core::MessagePool& pool, SimTime when,
                            std::function<void()> action) {
  core::EnvelopeRef env = pool.Acquire();
  env->time = when;
  env->task = core::MessageTask(core::Control{std::move(action)});
  return env;
}

void RunEnvelope(core::EnvelopeRef env) { core::RunControl(std::move(env)); }

TEST(EventQueueTest, OrdersByTime) {
  core::MessagePool pool;
  EventQueue q;
  std::vector<int> order;
  q.Push(ControlAt(pool, 30, [&] { order.push_back(3); }));
  q.Push(ControlAt(pool, 10, [&] { order.push_back(1); }));
  q.Push(ControlAt(pool, 20, [&] { order.push_back(2); }));
  while (!q.empty()) RunEnvelope(q.Pop());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoOnTies) {
  core::MessagePool pool;
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(ControlAt(pool, 5, [&order, i] { order.push_back(i); }));
  }
  while (!q.empty()) RunEnvelope(q.Pop());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PoppedEnvelopesRecycleThroughThePool) {
  core::MessagePool pool;
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    q.Push(ControlAt(pool, static_cast<SimTime>(round), [] {}));
    RunEnvelope(q.Pop());
  }
  const core::MessagePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquired, 100u);
  // One envelope in flight at a time: the first Acquire allocates, the
  // other 99 are freelist hits — zero allocations in steady state.
  EXPECT_EQ(stats.envelopes_allocated, 1u);
  EXPECT_EQ(stats.recycled, 99u);
}

// -------------------------------------------- calendar-queue edge cases --
//
// The EventQueue is a windowed calendar queue (sim/event_queue.h);
// these tests force its off-window machinery: overflow migration, window
// rebase on a past push, interleaved push/pop on the active bucket, and a
// randomized shootout against an order-stamp sort oracle.

TEST(CalendarQueueTest, FarFutureEventsMigrateFromOverflow) {
  core::MessagePool pool;
  EventQueue q;
  std::vector<int> order;
  // Spread far beyond one 1024-tick window: the tail sits in the overflow
  // heap until the cursor reaches it.
  for (int i = 9; i >= 0; --i) {
    q.Push(ControlAt(pool, static_cast<SimTime>(i) * 700,
                     [&order, i] { order.push_back(i); }));
  }
  EXPECT_EQ(q.size(), 10u);
  while (!q.empty()) RunEnvelope(q.Pop());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(CalendarQueueTest, PushBehindTheCursorRebasesAndStaysOrdered) {
  core::MessagePool pool;
  EventQueue q;
  std::vector<SimTime> popped;
  auto note = [&popped](SimTime t) { return [&popped, t] { popped.push_back(t); }; };
  q.Push(ControlAt(pool, 5000, note(5000)));
  q.Push(ControlAt(pool, 5001, note(5001)));
  RunEnvelope(q.Pop());  // cursor advances to 5000
  // A bounded run can legally schedule behind the advanced cursor: the
  // window rebases and ordering still holds.
  q.Push(ControlAt(pool, 100, note(100)));
  q.Push(ControlAt(pool, 4000, note(4000)));
  while (!q.empty()) RunEnvelope(q.Pop());
  EXPECT_EQ(popped, (std::vector<SimTime>{5000, 100, 4000, 5001}));
}

TEST(CalendarQueueTest, SameTickPushWhileDrainingKeepsFifo) {
  core::MessagePool pool;
  EventQueue q;
  std::vector<int> order;
  // Event 0 pushes two more events at its own tick while the bucket is
  // actively draining; they must run after it, in push order.
  q.Push(ControlAt(pool, 7, [&] {
    order.push_back(0);
    q.Push(ControlAt(pool, 7, [&] { order.push_back(1); }));
    q.Push(ControlAt(pool, 7, [&] { order.push_back(2); }));
  }));
  q.Push(ControlAt(pool, 7, [&] { order.push_back(3); }));
  while (!q.empty()) RunEnvelope(q.Pop());
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(CalendarQueueTest, RandomizedShootoutMatchesReferenceModel) {
  core::MessagePool pool;
  EventQueue q;
  Rng rng(123);
  // Reference model: (time, push sequence) pairs; each pop must deliver the
  // model's minimum — the EventQueue contract is min-of-present with FIFO
  // on ties, regardless of which calendar bucket or overflow path served it.
  std::set<std::pair<SimTime, int>> ref;
  std::vector<std::pair<SimTime, int>> popped;
  int tag = 0;
  // Mixed regime: clustered near-term times, a far-future tail past the
  // 1024-tick window, duplicate ticks, and interleaved pops that drag the
  // window forward (later cheap pushes then force rebases).
  for (int round = 0; round < 50; ++round) {
    const int pushes = 1 + static_cast<int>(rng.NextBounded(40));
    for (int i = 0; i < pushes; ++i) {
      const uint64_t r = rng.NextBounded(100);
      const SimTime t = r < 80 ? rng.NextBounded(512)
                       : r < 95 ? 2000 + rng.NextBounded(8192)
                                : 100000 + rng.NextBounded(1000);
      const int id = tag++;
      ref.emplace(t, id);
      q.Push(ControlAt(pool, t, [&popped, t, id] {
        popped.emplace_back(t, id);
      }));
    }
    const int pops = static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      ASSERT_EQ(q.PeekTime(), ref.begin()->first);
      RunEnvelope(q.Pop());
      ASSERT_FALSE(popped.empty());
      ASSERT_EQ(popped.back(), *ref.begin());
      ref.erase(ref.begin());
    }
  }
  while (!q.empty()) {
    RunEnvelope(q.Pop());
    ASSERT_EQ(popped.back(), *ref.begin());
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(popped.size(), static_cast<size_t>(tag));
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator s(/*metrics=*/nullptr, /*seed=*/1);
  SimTime seen = 0;
  s.ScheduleEnvelope(ControlAt(s.pool(), 7, [&] { seen = s.Now(); }));
  s.Run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(s.Now(), 7u);
}

TEST(SimulatorTest, NestedSchedulingRuns) {
  Simulator s(/*metrics=*/nullptr, /*seed=*/1);
  auto after = [&s](SimTime delay, std::function<void()> action) {
    s.ScheduleEnvelope(
        ControlAt(s.pool(), s.Now() + delay, std::move(action)));
  };
  int fired = 0;
  after(1, [&] {
    ++fired;
    after(1, [&] {
      ++fired;
      after(1, [&] { ++fired; });
    });
  });
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.Now(), 3u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s(/*metrics=*/nullptr, /*seed=*/1);
  int fired = 0;
  s.ScheduleEnvelope(ControlAt(s.pool(), 5, [&] { ++fired; }));
  s.ScheduleEnvelope(ControlAt(s.pool(), 15, [&] { ++fired; }));
  s.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 10u);  // Clock advances even without events.
  s.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.Now(), 15u);
}

TEST(LatencyTest, FixedIsConstant) {
  FixedLatency l(3);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(l.Delay(rng), 3u);
  EXPECT_EQ(l.max_delay(), 3u);
}

TEST(LatencyTest, UniformWithinBounds) {
  UniformLatency l(2, 9);
  Rng rng(5);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const SimTime d = l.Delay(rng);
    EXPECT_GE(d, 2u);
    EXPECT_LE(d, 9u);
    lo |= (d == 2);
    hi |= (d == 9);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
  EXPECT_EQ(l.max_delay(), 9u);
}

TEST(LatencyTest, BurstyMixesDelays) {
  BurstyLatency l(1, 100, 0.5);
  Rng rng(7);
  int bursts = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime d = l.Delay(rng);
    EXPECT_TRUE(d == 1 || d == 100);
    if (d == 100) ++bursts;
  }
  EXPECT_GT(bursts, 300);
  EXPECT_LT(bursts, 700);
  EXPECT_EQ(l.max_delay(), 100u);
}

}  // namespace
}  // namespace rjoin::sim
