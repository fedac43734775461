// Fom runtime: pooled state machines for long-running operations
// (DESIGN.md §16; the request-handler shape of cortx-motr's reqh/fom).
//
// A long-running operation — evolution incorporation, migration, creation,
// coordinated update, poll/removal — used to run as a hand-rolled
// `shared_ptr<std::function>` continuation chain: one heap control block
// plus a closure spill per step, and one event-queue round trip per
// micro-transition. A Fom reifies the same operation as an explicit
// state machine: its whole state lives in ONE pooled block, `Tick()` runs
// the current phase and returns what to do next, and the per-simulation
// FomScheduler drives ready Foms through consecutive same-sim-time
// transitions in one run-queue drain.
//
// The scheduler's contract is SimTime neutrality: a Fom conversion changes
// control flow, never the simulated schedule. Wakeups therefore run the Fom
// synchronously inside the waking event (exactly where the legacy chain
// invoked its continuation), a completion that lands while the Fom is still
// ticking is consumed in the same drain instead of by tail-call recursion,
// and real delays still go through `Simulation::Schedule` via `ArmTimer`.
// Determinism digests are byte-identical across the conversion — the Fom
// equivalence suite (tests/runtime/fom_equivalence_test.cpp) pins that.
//
// Threading: one scheduler per Simulation, driven only from that
// simulation's event loop. A synchronous completion that re-wakes the
// running Fom (or wakes another) nests on the same stack.
//
// Writing a new Fom:
//
//   class MyFom : public runtime::Fom {
//    public:
//     MyFom(...) : Fom("my_op") { ... }
//     FomStatus Tick() override {
//       switch (phase()) {
//         case kStart:
//           EnterPhase(kFetching, "fetching");
//           StartFetch(..., WakeFn());       // 16-byte trampoline
//           return WaitOn(WakeSource::kFetch);
//         case kFetching:
//           if (!wake_status().ok()) { done_(wake_status()); return Done(); }
//           ...
//       }
//     }
//   };
//
//   auto& sched = runtime::FomScheduler::For(simulation);
//   sched.Start(*sched.Create<MyFom>(...));
//
// Completion callbacks a Fom hands to other subsystems must stay within
// std::function's 16-byte inline buffer (capture {scheduler, id} only) so
// the conversion removes allocations instead of moving them around. The
// scheduler's Wake*() entry points are exactly that shape, and a stale id —
// the Fom finished before the completion arrived — is a safe no-op. A Fom
// re-finds the object it works on after each wait (DcdoOp in core/dcdo.cc,
// the manager's instance table), so a destroy meanwhile ends it kNotFound.
#pragma once

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pool_allocator.h"
#include "common/status.h"
#include "instrument/context.h"
#include "sim/simulation.h"

namespace dcdo::runtime {

// What Tick() tells the scheduler to do next.
enum class FomStatus : std::uint8_t {
  kWait,  // parked until the awaited WakeSource fires (use WaitOn)
  kDone,  // operation complete: destroy the Fom and recycle its block
};

// What a parked Fom waits on. A wake only lands if the Fom awaits that
// source (anything else is stale and ignored).
enum class WakeSource : std::uint8_t {
  kNone = 0,
  kFetch,  // a component fetch completion
  kTimer,  // an ArmTimer deadline
  kChild,  // a sub-operation this Fom started (spawn, transfer, callback op)
};

class FomScheduler;

class Fom {
 public:
  Fom(const Fom&) = delete;
  Fom& operator=(const Fom&) = delete;
  virtual ~Fom() = default;

  std::uint64_t id() const { return id_; }
  const char* name() const { return name_; }
  int phase() const { return phase_; }
  const char* phase_name() const { return phase_name_; }
  FomScheduler& scheduler() const { return *scheduler_; }

  // Payload of the most recent wake (set by WakeStatus / WakeValue before
  // the Fom ticks). Valid until the next wake overwrites it.
  const Status& wake_status() const { return wake_status_; }
  std::uint64_t wake_value() const { return wake_value_; }

 protected:
  explicit Fom(const char* name) : name_(name) {}

  // Runs the current phase. Called only by the scheduler.
  virtual FomStatus Tick() = 0;

  // Records a phase transition: closes the previous phase's trace span and
  // opens the next (span name = the Fom's name, "phase" note = phase_name),
  // under the phase parent.
  void EnterPhase(int phase, const char* phase_name);

  // The span the phase spans nest under (default: the scope innermost when
  // each phase begins). A Fom that carries its operation's span sets it.
  void set_phase_parent(trace::SpanId parent) { phase_parent_ = parent; }

  // Declares what the Fom sleeps on and returns kWait; use as
  // `return WaitOn(WakeSource::kFetch);`.
  FomStatus WaitOn(WakeSource source) {
    awaited_ = source;
    return FomStatus::kWait;
  }

  sim::Simulation& simulation() const;

 private:
  friend class FomScheduler;
  enum class RunState : std::uint8_t { kCreated, kQueued, kRunning, kWaiting };

  const char* name_;
  const char* phase_name_ = "";
  FomScheduler* scheduler_ = nullptr;
  std::uint64_t id_ = 0;
  int phase_ = -1;
  RunState run_state_ = RunState::kCreated;
  WakeSource awaited_ = WakeSource::kNone;
  // A wake that arrived while the Fom was running or queued (a completion
  // that finished synchronously inside Tick). The drain loop consumes it —
  // turning the legacy chains' tail recursion into iteration.
  WakeSource pending_ = WakeSource::kNone;
  Status wake_status_;
  std::uint64_t wake_value_ = 0;
  std::uint64_t timer_id_ = 0;  // outstanding ArmTimer event (0 = none)
  trace::SpanId phase_span_ = 0;
  trace::SpanId phase_parent_ = trace::kScopeParent;
  // Pooled-block bookkeeping: Create<T>() records how to return the block.
  void (*dealloc_)(void*) = nullptr;
  void* block_ = nullptr;
};

// Per-simulation scheduler: the live Foms by id and a run queue; a parked
// Fom's own `awaited_` says what wakes it. Attached to the Simulation
// (sim::Simulation::attachment), so every layer reaches the same instance
// without a new dependency edge.
class FomScheduler {
 public:
  explicit FomScheduler(sim::Simulation* simulation)
      : simulation_(simulation) {}
  // Destroys every live Fom (cancelling its timer, returning its block):
  // the simulation is going away with operations still in flight.
  ~FomScheduler();

  // The scheduler for `simulation`, created on first use.
  static FomScheduler& For(sim::Simulation& simulation);

  // Allocates a T from the pool and registers it. The Fom does not run
  // until Start().
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    static_assert(std::is_base_of_v<Fom, T>);
    void* block = common::PoolAllocate<sizeof(T)>();
    T* fom = new (block) T(std::forward<Args>(args)...);
    fom->block_ = block;
    fom->dealloc_ = [](void* p) { common::PoolFree<sizeof(T)>(p); };
    Register(fom);
    return fom;
  }

  // Enqueues the Fom and drains the run queue NOW, on the caller's stack —
  // the operation starts synchronously, exactly like the legacy chains.
  void Start(Fom& fom);

  // Wake entry points: 16-byte-trampoline-friendly (capture {this, id}).
  // A stale id, or a source the Fom is not waiting on, is a no-op.
  void Wake(std::uint64_t id, WakeSource source);
  void WakeStatus(std::uint64_t id, WakeSource source, Status status);
  void WakeValue(std::uint64_t id, WakeSource source, std::uint64_t value);

  // Schedules a kTimer wake after `delay` (a real Simulation::Schedule
  // event — the one legitimate way a Fom spends simulated time between
  // phases). The armed event is cancelled if the Fom is destroyed first.
  void ArmTimer(Fom& fom, sim::SimDuration delay);

  bool Alive(std::uint64_t id) const;
  std::size_t live_count() const;

  sim::Simulation& simulation() const { return *simulation_; }

 private:
  void Register(Fom* fom);
  void Enqueue(Fom* fom);
  void Drain();
  void RunOne(Fom* fom);
  void Destroy(Fom* fom);
  Fom* Payload(std::uint64_t id);  // lookup for Wake{Status,Value}, or null

  sim::Simulation* simulation_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Fom*> live_;
  std::vector<Fom*> run_queue_;
};

inline sim::Simulation& Fom::simulation() const {
  return scheduler_->simulation();
}

}  // namespace dcdo::runtime
