#include "sim/simulation.h"

#include <gtest/gtest.h>

namespace dcdo::sim {
namespace {

TEST(SimulationTest, StartsAtZeroAndIdle) {
  Simulation simulation;
  EXPECT_EQ(simulation.Now(), SimTime::Zero());
  EXPECT_TRUE(simulation.Idle());
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.Schedule(SimDuration::Millis(30), [&] { order.push_back(3); });
  simulation.Schedule(SimDuration::Millis(10), [&] { order.push_back(1); });
  simulation.Schedule(SimDuration::Millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(simulation.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Millis(30));
}

TEST(SimulationTest, SameTimeEventsFireFifo) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulation.Schedule(SimDuration::Millis(10),
                        [&order, i] { order.push_back(i); });
  }
  simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulationTest, HandlersCanScheduleMoreEvents) {
  Simulation simulation;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 4) simulation.Schedule(SimDuration::Millis(5), chain);
  };
  simulation.Schedule(SimDuration::Millis(5), chain);
  simulation.Run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(simulation.Now().ToSeconds(), 0.020);
}

TEST(SimulationTest, CancelPreventsFiring) {
  Simulation simulation;
  bool fired = false;
  std::uint64_t id =
      simulation.Schedule(SimDuration::Millis(5), [&] { fired = true; });
  simulation.Cancel(id);
  simulation.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelIsSelective) {
  Simulation simulation;
  int fired = 0;
  std::uint64_t id =
      simulation.Schedule(SimDuration::Millis(5), [&] { ++fired; });
  simulation.Schedule(SimDuration::Millis(6), [&] { ++fired; });
  simulation.Cancel(id);
  simulation.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, CancelScalesToTenThousandTimers) {
  // The retry/timeout pattern at scale: 10k timers scheduled, most cancelled
  // before firing. Cancellation is O(1) per timer (a tombstone set, not a
  // queue scan), so this is quick even though every cancelled event is still
  // popped and skipped by the run loop.
  constexpr int kTimers = 10'000;
  Simulation simulation;
  int fired = 0;
  std::vector<std::uint64_t> ids;
  ids.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    ids.push_back(
        simulation.Schedule(SimDuration::Micros(i + 1), [&] { ++fired; }));
  }
  // Cancel all but every 100th timer, in reverse order (no relation between
  // cancel order and queue order).
  for (int i = kTimers - 1; i >= 0; --i) {
    if (i % 100 != 0) simulation.Cancel(ids[i]);
  }
  // Cancelling an already-cancelled or unknown id is a harmless no-op.
  simulation.Cancel(ids[1]);
  simulation.Cancel(123456789u);
  simulation.Run();
  EXPECT_EQ(fired, kTimers / 100);
  // The clock advanced to the last *surviving* timer: cancelled events are
  // skipped without moving simulated time.
  EXPECT_EQ(simulation.Now(),
            SimTime::Zero() + SimDuration::Micros(9'901));
  EXPECT_TRUE(simulation.Idle());
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation simulation;
  std::vector<int> order;
  simulation.Schedule(SimDuration::Millis(10), [&] { order.push_back(1); });
  simulation.Schedule(SimDuration::Millis(30), [&] { order.push_back(2); });
  simulation.RunUntil(SimTime::Zero() + SimDuration::Millis(20));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Millis(20));
  simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Re-entrant RunUntil is how DCDO bodies "block on an outcall" while the
// rest of the system proceeds; the engine must tolerate it.
TEST(SimulationTest, ReentrantRunUntilFiresInterveningEvents) {
  Simulation simulation;
  std::vector<std::string> trace;
  simulation.Schedule(SimDuration::Millis(10), [&] {
    trace.push_back("outer-start");
    simulation.RunUntil(simulation.Now() + SimDuration::Millis(20));
    trace.push_back("outer-end");
  });
  simulation.Schedule(SimDuration::Millis(15),
                      [&] { trace.push_back("intervening"); });
  simulation.Run();
  EXPECT_EQ(trace, (std::vector<std::string>{"outer-start", "intervening",
                                             "outer-end"}));
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Millis(30));
}

TEST(SimulationTest, RunWhilePredicateStops) {
  Simulation simulation;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    simulation.Schedule(SimDuration::Millis(i), [&] { ++count; });
  }
  bool satisfied = simulation.RunWhile([&] { return count < 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(count, 4);
}

TEST(SimulationTest, RunWhileReturnsFalseWhenDrained) {
  Simulation simulation;
  simulation.Schedule(SimDuration::Millis(1), [] {});
  bool satisfied = simulation.RunWhile([] { return true; });
  EXPECT_FALSE(satisfied);
}

TEST(SimulationTest, RunWhileChecksPredicateBeforeFirstEvent) {
  Simulation simulation;
  int count = 0;
  simulation.Schedule(SimDuration::Millis(1), [&] { ++count; });
  EXPECT_TRUE(simulation.RunWhile([] { return false; }));
  EXPECT_EQ(count, 0);
  EXPECT_EQ(simulation.pending_events(), 1u);
}

TEST(SimulationTest, RunWhileDrainsQueueThenReportsUnsatisfied) {
  // The queue-empties-first return path: every event fires, the clock ends at
  // the last event's timestamp, and the false return tells the caller the
  // predicate never turned false (it is still true).
  Simulation simulation;
  int count = 0;
  for (int i = 1; i <= 3; ++i) {
    simulation.Schedule(SimDuration::Millis(i), [&] { ++count; });
  }
  EXPECT_FALSE(simulation.RunWhile([&] { return count < 100; }));
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(simulation.Idle());
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Millis(3));
}

TEST(SimulationTest, AdvanceInlineMovesClockWithoutEvents) {
  Simulation simulation;
  simulation.AdvanceInline(SimDuration::Micros(12));
  EXPECT_EQ(simulation.Now().nanos(), 12'000);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation simulation;
  simulation.AdvanceInline(SimDuration::Millis(5));
  bool fired = false;
  simulation.Schedule(SimDuration::Millis(-10), [&] { fired = true; });
  simulation.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Millis(5));
}

// --- Timer-wheel coverage. Short-horizon events live in the hierarchical
// wheel, long-horizon ones in the priority queue; ordering and cancellation
// must be indistinguishable between the two homes.

TEST(SimulationTest, MixedHorizonsFireInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  // Spread across every wheel level and beyond its ~18 min span (-> queue):
  // 10 us and 1 ms (level 0/1), 200 ms (level 2), 60 s (level 3), 30 min
  // (queue), plus a 0-delay event (immediately due -> queue).
  simulation.Schedule(SimDuration::Seconds(1800.0), [&] { order.push_back(6); });
  simulation.Schedule(SimDuration::Seconds(60.0), [&] { order.push_back(5); });
  simulation.Schedule(SimDuration::Millis(200), [&] { order.push_back(4); });
  simulation.Schedule(SimDuration::Millis(1), [&] { order.push_back(3); });
  simulation.Schedule(SimDuration::Micros(10), [&] { order.push_back(2); });
  simulation.Schedule(SimDuration::Zero(), [&] { order.push_back(1); });
  EXPECT_EQ(simulation.Run(), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(simulation.Now(),
            SimTime::Zero() + SimDuration::Seconds(1800.0));
  EXPECT_TRUE(simulation.Idle());
}

// Two events with the same `when` keep submission order even when one sits
// in the wheel and the other went straight to the queue (scheduled later,
// from a time at which the shared deadline no longer fits a wheel slot).
TEST(SimulationTest, SameWhenAcrossWheelAndQueueKeepsFifo) {
  Simulation simulation;
  std::vector<int> order;
  SimTime when = SimTime::Zero() + SimDuration::Millis(10);
  simulation.ScheduleAt(when, [&] { order.push_back(1); });  // wheel-resident
  simulation.Schedule(SimDuration::Millis(10) - SimDuration::Nanos(1),
                      [&] {
                        // 1 ns before `when`: the deadline is inside the
                        // current tick, so this lands in the queue.
                        simulation.ScheduleAt(when, [&] { order.push_back(2); });
                      });
  simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulationTest, RunUntilDeadlineBetweenWheelSlots) {
  Simulation simulation;
  int fired = 0;
  simulation.Schedule(SimDuration::Millis(10), [&] { ++fired; });
  simulation.Schedule(SimDuration::Millis(30), [&] { ++fired; });
  // A deadline that is not aligned to any slot boundary and has no event of
  // its own: only the earlier timer fires, and the clock lands exactly on it.
  simulation.RunUntil(SimTime::Zero() + SimDuration::Micros(20'500));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.Now(), SimTime::Zero() + SimDuration::Micros(20'500));
  EXPECT_EQ(simulation.pending_events(), 1u);
  simulation.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(simulation.Idle());
}

// The RPC hot pattern: arm a timeout, cancel it moments later, thousands of
// times, across horizons that hit different wheel levels. Nothing leaks and
// the surviving timers fire in order.
TEST(SimulationTest, ArmCancelChurnAcrossLevels) {
  Simulation simulation;
  int fired = 0;
  std::vector<int> horizons_us = {50, 900, 7'000, 120'000, 3'000'000};
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint64_t> ids;
    for (int h : horizons_us) {
      ids.push_back(
          simulation.Schedule(SimDuration::Micros(h), [&] { ++fired; }));
    }
    for (std::uint64_t id : ids) simulation.Cancel(id);
    // One survivor per round.
    simulation.Schedule(SimDuration::Micros(100 + round), [&] { ++fired; });
  }
  // Cancellation reclaims the slab slot eagerly wherever the event lives, so
  // exactly the survivors remain pending.
  EXPECT_EQ(simulation.pending_events(), 200u);
  simulation.Run();
  EXPECT_EQ(fired, 200);
  EXPECT_TRUE(simulation.Idle());
  EXPECT_EQ(simulation.pending_events(), 0u);
}

// Cancelling a wheel-resident event after the clock has moved past its slot's
// level boundary (forcing a cascade in between) must still work.
TEST(SimulationTest, CancelSurvivesCascade) {
  Simulation simulation;
  bool fired = false;
  // 300 ms out: starts on an upper wheel level. Firing the 285 ms helper
  // flushes their shared coarse slot, cascading the target to a finer level
  // before the cancel lands.
  std::uint64_t id =
      simulation.Schedule(SimDuration::Millis(300), [&] { fired = true; });
  simulation.Schedule(SimDuration::Millis(285), [&] {
    simulation.Cancel(id);  // cancel mid-flight, post-cascade
  });
  simulation.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(simulation.Idle());
}

// Regression: a level-1 slot and a level-2 slot sharing the same aligned
// start_ns. Flushing the finer slot advances the wheel cursor exactly onto
// the coarser slot's tick, and that slot must still be treated as due —
// reading it as one full revolution (~17 s) later fires its events after
// later-scheduled ones and drives the clock backwards.
TEST(SimulationTest, AlignedSlotsAcrossLevelsFlushTogether) {
  Simulation simulation;
  // 2^28 ns is simultaneously a level-2 and a level-1 tick boundary
  // (tick widths 2^28 ns and 2^22 ns).
  constexpr std::int64_t kAlignedNs = std::int64_t{1} << 28;
  constexpr std::int64_t kLevel1TickNs = std::int64_t{1} << 22;
  std::vector<int> order;
  std::vector<std::int64_t> times;
  auto record = [&](int label) {
    order.push_back(label);
    times.push_back(simulation.Now().nanos());
  };
  // Scheduled from time 0 the boundary is 64 level-1 ticks out — one past
  // the level-1 span — so this lands in the level-2 slot covering
  // [2^28, 2^29).
  simulation.ScheduleAt(SimTime::FromNanos(kAlignedNs), [&] { record(2); });
  // A helper fires at one level-1 tick, putting the cursor at 2^22 ns when
  // the events below are scheduled.
  simulation.ScheduleAt(SimTime::FromNanos(kLevel1TickNs), [&] {
    record(0);
    // Now only 63 level-1 ticks away: lands in the level-1 slot whose start
    // is also exactly 2^28 — tied with the level-2 slot above.
    simulation.ScheduleAt(SimTime::FromNanos(kAlignedNs), [&] { record(1); });
    // Rides the same level-1 slot; a witness that fires between the two
    // flush points if the level-2 slot is misplaced a revolution late.
    simulation.ScheduleAt(SimTime::FromNanos(kAlignedNs + 1000),
                          [&] { record(3); });
    // Arm-and-cancel a lone wheel event so the cached earliest-slot hint is
    // dropped and the next lookup rescans both tied slots (the scan prefers
    // the finer level, forcing the finer-flushes-first order under test).
    simulation.Cancel(
        simulation.ScheduleAt(SimTime::FromNanos(5 * kLevel1TickNs), [] {}));
  });
  simulation.Run();
  // Same-time events keep schedule order: 2 was scheduled before 1.
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]) << "clock ran backwards at event " << i;
  }
  EXPECT_EQ(simulation.Now().nanos(), kAlignedNs + 1000);
}

// The determinism digest is what the Fom equivalence pins and run-to-run
// comparisons rest on: it must be reproducible, and a one-nanosecond shift
// of a single event must change it.
TEST(SimulationTest, DeterminismDigestSeparatesDivergentWorkloads) {
  auto digest_with_extra_delay = [](SimDuration extra) {
    Simulation sim;
    sim.EnableDeterminismDigest(true);
    sim.Schedule(SimDuration::Micros(10), [] {});
    sim.Schedule(SimDuration::Micros(20) + extra, [] {});
    sim.Run();
    return sim.DeterminismDigest();
  };
  EXPECT_EQ(digest_with_extra_delay(SimDuration::Zero()),
            digest_with_extra_delay(SimDuration::Zero()));
  EXPECT_NE(digest_with_extra_delay(SimDuration::Zero()),
            digest_with_extra_delay(SimDuration::Nanos(1)));
}

TEST(SimTimeTest, DurationArithmetic) {
  EXPECT_EQ(SimDuration::Seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ((SimDuration::Millis(2) + SimDuration::Micros(500)).ToMillis(),
            2.5);
  EXPECT_EQ((SimDuration::Millis(2) * 3).ToMillis(), 6.0);
  EXPECT_LT(SimDuration::Micros(1), SimDuration::Millis(1));
}

TEST(SimTimeTest, TimeMinusTimeIsDuration) {
  SimTime a = SimTime::Zero() + SimDuration::Seconds(2.0);
  SimTime b = SimTime::Zero() + SimDuration::Seconds(0.5);
  EXPECT_EQ((a - b).ToSeconds(), 1.5);
}

}  // namespace
}  // namespace dcdo::sim
