// Unit tests for the Fom runtime (src/runtime/fom.{h,cc}): phase
// transitions, per-source wait/wakeup (including stale and pending wakes),
// teardown with a wait outstanding, and pooled block reuse. The
// SimTime-equivalence suite for the converted operations lives in
// fom_equivalence_test.cpp.
#include "runtime/fom.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulation.h"

namespace dcdo::runtime {
namespace {

// A scriptable Fom: each Tick records its entry, then performs the next
// scripted action. Lets every test express a lifecycle as data.
class ScriptedFom final : public Fom {
 public:
  struct Action {
    FomStatus status = FomStatus::kDone;  // what Tick returns
    WakeSource wait_on = WakeSource::kNone;  // for kWait
    sim::SimDuration arm_timer = sim::SimDuration::Nanos(0);  // >0: ArmTimer
    int enter_phase = -1;  // >=0: EnterPhase(enter_phase, "scripted")
  };

  ScriptedFom(std::vector<Action> script, int* ticks, bool* destroyed)
      : Fom("test.scripted"),
        script_(std::move(script)),
        ticks_(ticks),
        destroyed_(destroyed) {}

  ~ScriptedFom() override {
    if (destroyed_ != nullptr) *destroyed_ = true;
  }

  FomStatus Tick() override {
    const Action action = script_.at(static_cast<std::size_t>(*ticks_));
    ++*ticks_;
    if (action.enter_phase >= 0) EnterPhase(action.enter_phase, "scripted");
    if (action.arm_timer > sim::SimDuration::Nanos(0)) {
      scheduler().ArmTimer(*this, action.arm_timer);
    }
    if (action.status == FomStatus::kWait) return WaitOn(action.wait_on);
    return action.status;
  }

  Status last_status() const { return wake_status(); }
  std::uint64_t last_value() const { return wake_value(); }

 private:
  std::vector<Action> script_;
  int* ticks_;
  bool* destroyed_;
};

using Action = ScriptedFom::Action;

TEST(FomTest, PhaseTransitionsAreVisible) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  int ticks = 0;
  ScriptedFom* fom = scheduler.Create<ScriptedFom>(
      std::vector<Action>{
          {.status = FomStatus::kWait,
           .wait_on = WakeSource::kChild,
           .enter_phase = 2},
          {.status = FomStatus::kDone, .enter_phase = 5}},
      &ticks, nullptr);
  EXPECT_EQ(fom->phase(), -1);  // not yet ticked
  const std::uint64_t id = fom->id();
  scheduler.Start(*fom);
  EXPECT_EQ(fom->phase(), 2);
  scheduler.Wake(id, WakeSource::kChild);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(scheduler.Alive(id));
}

TEST(FomTest, EachWakeSourceWakesOnlyItsWaiter) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  constexpr int kSources = 3;
  const WakeSource sources[kSources] = {WakeSource::kFetch, WakeSource::kTimer,
                                        WakeSource::kChild};
  int ticks[kSources] = {0, 0, 0};
  std::uint64_t ids[kSources];
  for (int i = 0; i < kSources; ++i) {
    ScriptedFom* fom = scheduler.Create<ScriptedFom>(
        std::vector<Action>{
            {.status = FomStatus::kWait, .wait_on = sources[i]},
            {.status = FomStatus::kDone}},
        &ticks[i], nullptr);
    ids[i] = fom->id();
    scheduler.Start(*fom);
    EXPECT_TRUE(scheduler.Alive(ids[i]));
  }
  EXPECT_EQ(scheduler.live_count(), 3u);
  // Wake each in turn: another source's wake leaves it parked, its own
  // advances it.
  for (int i = 0; i < kSources; ++i) {
    scheduler.Wake(ids[i], sources[(i + 1) % kSources]);
    EXPECT_EQ(ticks[i], 1) << "source " << i;
    EXPECT_TRUE(scheduler.Alive(ids[i]));
    scheduler.Wake(ids[i], sources[i]);
    EXPECT_EQ(ticks[i], 2) << "source " << i;
    EXPECT_FALSE(scheduler.Alive(ids[i]));
  }
  EXPECT_EQ(scheduler.live_count(), 0u);
}

TEST(FomTest, StaleWakeForWrongSourceIsDropped) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  int ticks = 0;
  ScriptedFom* fom = scheduler.Create<ScriptedFom>(
      std::vector<Action>{
          {.status = FomStatus::kWait, .wait_on = WakeSource::kFetch},
          {.status = FomStatus::kDone}},
      &ticks, nullptr);
  const std::uint64_t id = fom->id();
  scheduler.Start(*fom);
  // A wake for a source the Fom is not waiting on must not advance it.
  scheduler.Wake(id, WakeSource::kChild);
  EXPECT_EQ(ticks, 1);
  EXPECT_TRUE(scheduler.Alive(id));
  scheduler.Wake(id, WakeSource::kFetch);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(scheduler.Alive(id));
}

TEST(FomTest, WakeAfterCompletionIsANoOp) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  int ticks = 0;
  ScriptedFom* fom = scheduler.Create<ScriptedFom>(
      std::vector<Action>{{.status = FomStatus::kDone}}, &ticks, nullptr);
  const std::uint64_t id = fom->id();
  scheduler.Start(*fom);
  EXPECT_FALSE(scheduler.Alive(id));
  scheduler.Wake(id, WakeSource::kFetch);  // must not crash or resurrect
  EXPECT_EQ(ticks, 1);
}

TEST(FomTest, WakeStatusAndValueDeliverPayloads) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  int ticks = 0;
  ScriptedFom* fom = scheduler.Create<ScriptedFom>(
      std::vector<Action>{
          {.status = FomStatus::kWait, .wait_on = WakeSource::kFetch},
          {.status = FomStatus::kWait, .wait_on = WakeSource::kChild},
          {.status = FomStatus::kDone}},
      &ticks, nullptr);
  const std::uint64_t id = fom->id();
  scheduler.Start(*fom);
  scheduler.Wake(id, WakeSource::kFetch, InvalidArgumentError("boom"));
  // The payload was readable during tick 2; the Fom is now waiting on
  // kChild and the status payload persists until overwritten.
  EXPECT_EQ(fom->last_status().code(), ErrorCode::kInvalidArgument);
  scheduler.Wake(id, WakeSource::kChild, Status::Ok(), 42);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(scheduler.Alive(id));
}

TEST(FomTest, PendingWakeDuringTickIsConsumedWithoutParking) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);

  // A Fom whose first Tick completes its own awaited source synchronously
  // (the "completion ran inline" case the converted operations hit when a
  // fetch is cached): the wake arrives while the Fom is running, so the
  // kWait must be satisfied from the pending wake, in the same drain.
  class SelfCompleting final : public Fom {
   public:
    explicit SelfCompleting(int* ticks) : Fom("test.self"), ticks_(ticks) {}
    FomStatus Tick() override {
      ++*ticks_;
      if (*ticks_ == 1) {
        scheduler().Wake(id(), WakeSource::kFetch);
        return WaitOn(WakeSource::kFetch);
      }
      return FomStatus::kDone;
    }
    int* ticks_;
  };

  int ticks = 0;
  SelfCompleting* fom = scheduler.Create<SelfCompleting>(&ticks);
  scheduler.Start(*fom);
  EXPECT_EQ(ticks, 2);  // both ticks inside Start — never parked
  EXPECT_EQ(scheduler.live_count(), 0u);
}

TEST(FomTest, TimerWakesThroughSimulation) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  int ticks = 0;
  ScriptedFom* fom = scheduler.Create<ScriptedFom>(
      std::vector<Action>{
          {.status = FomStatus::kWait,
           .wait_on = WakeSource::kTimer,
           .arm_timer = sim::SimDuration::Millis(5)},
          {.status = FomStatus::kDone}},
      &ticks, nullptr);
  scheduler.Start(*fom);
  EXPECT_EQ(ticks, 1);
  simulation.RunUntil(simulation.Now() + sim::SimDuration::Millis(4));
  EXPECT_EQ(ticks, 1);  // not yet
  simulation.RunUntil(simulation.Now() + sim::SimDuration::Millis(2));
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(scheduler.live_count(), 0u);
}

TEST(FomTest, PooledBlocksAreReusedAcrossLifetimes) {
  sim::Simulation simulation;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  // Run one Fom to completion, remember its block address, then create
  // another of the same type: the pool must hand the freed block back.
  int ticks = 0;
  ScriptedFom* first = scheduler.Create<ScriptedFom>(
      std::vector<Action>{{.status = FomStatus::kDone}}, &ticks, nullptr);
  void* first_block = static_cast<void*>(first);
  scheduler.Start(*first);
  EXPECT_EQ(scheduler.live_count(), 0u);

  int second_ticks = 0;
  ScriptedFom* second = scheduler.Create<ScriptedFom>(
      std::vector<Action>{{.status = FomStatus::kDone}}, &second_ticks,
      nullptr);
  EXPECT_EQ(static_cast<void*>(second), first_block)
      << "freed Fom block was not recycled by the pool";
  scheduler.Start(*second);
  EXPECT_EQ(scheduler.live_count(), 0u);
}

TEST(FomTest, SchedulerTeardownAbortsLiveFoms) {
  sim::Simulation simulation;
  const std::vector<Action> wait_on_timer{
      {.status = FomStatus::kWait,
       .wait_on = WakeSource::kTimer,
       .arm_timer = sim::SimDuration::Millis(5)},
      {.status = FomStatus::kDone}};
  int ticks = 0;
  bool destroyed = false;
  FomScheduler& scheduler = FomScheduler::For(simulation);
  ScriptedFom* fom =
      scheduler.Create<ScriptedFom>(wait_on_timer, &ticks, &destroyed);
  void* block = static_cast<void*>(fom);
  scheduler.Start(*fom);
  // The scheduler goes away with the wait outstanding, as it does when a
  // test tears its simulation down mid-scenario.
  simulation.set_attachment(nullptr);
  EXPECT_TRUE(destroyed);
  // Its timer went with it: running on must not tick the freed block.
  simulation.RunUntil(simulation.Now() + sim::SimDuration::Millis(10));
  EXPECT_EQ(ticks, 1);
  // And its block went back to the pool.
  int next_ticks = 0;
  FomScheduler& next = FomScheduler::For(simulation);
  ScriptedFom* reused =
      next.Create<ScriptedFom>(wait_on_timer, &next_ticks, nullptr);
  EXPECT_EQ(static_cast<void*>(reused), block)
      << "torn-down Fom block was not recycled by the pool";
  next.Start(*reused);
  // `simulation` is destroyed with this timer armed: its scheduler goes
  // first, while the engine the timer is cancelled in is still whole.
}

TEST(FomTest, SchedulerIsAttachedOncePerSimulation) {
  sim::Simulation simulation;
  FomScheduler& a = FomScheduler::For(simulation);
  FomScheduler& b = FomScheduler::For(simulation);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a.simulation(), &simulation);
}

}  // namespace
}  // namespace dcdo::runtime
