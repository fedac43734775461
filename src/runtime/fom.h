// Fom runtime: pooled state machines for long-running operations
// (DESIGN.md §16; the request-handler shape of cortx-motr's reqh/fom).
//
// Every multi-step operation of the object layers (creation, evolution,
// incorporation, migration, deactivation and reactivation, a removal
// waiting out active threads, a coordinated update, the class object's
// create/evolve/migrate) is a Fom: a state machine whose whole state lives
// in ONE pooled block. `Tick()` runs the current phase and returns what to
// do next; the per-simulation FomScheduler drives ready Foms through
// consecutive same-sim-time transitions in one drain, from the event loop.
//
// SimTime neutrality: a wakeup runs the Fom synchronously inside the waking
// event, a completion that lands while the Fom ticks is consumed in the same
// drain, and real delays go through `Simulation::Schedule` via `ArmTimer`
// (tests/runtime/fom_equivalence_test.cpp pins the determinism digests).
//
// Two rules keep an operation from outliving what it works on. The only
// completion a Fom hands to another subsystem is its WakeFn(): a 16-byte
// Waker that fits std::function's inline buffer and does nothing once the
// Fom has finished. And a Fom reaches the objects it works on only through
// OwnerLinks (OwnedFom::owner() for its owner): each object holds a FomOwner
// list whose destruction cuts every link and runs nothing, so each
// operation in flight finds owner() null at its next wake, ends kNotFound
// and reports once:
//
//   FomStatus Tick() override {  // in a runtime::OwnedFom<MyOwner>
//     if (phase() >= 0) return Finish(owner() ? wake_status() : Gone());
//     EnterPhase(kFetching, "fetching");
//     owner()->StartFetch(..., WakeFn(WakeSource::kFetch));
//     return WaitOn(WakeSource::kFetch);
//   }
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pool_allocator.h"
#include "common/status.h"
#include "instrument/context.h"
#include "sim/host.h"
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
class FomOwner;

// A link to an object through the FomOwner list it holds: get() is the
// object until its destruction cuts the link, running nothing; then null.
class OwnerLink {
 public:
  OwnerLink() = default;
  OwnerLink(const OwnerLink&) = delete;
  OwnerLink& operator=(const OwnerLink&) = delete;
  ~OwnerLink();  // unlinks from the list

  void Attach(void* owner, FomOwner& ops);
  template <typename Owner>
  Owner* get() const { return static_cast<Owner*>(ops_ ? owner_ : nullptr); }

 private:
  friend class FomOwner;
  void* owner_ = nullptr;
  FomOwner* ops_ = nullptr;  // the owner's list, while linked
  OwnerLink* next_ = nullptr;
};

// The completion a Fom hands out for one wait (Fom::WakeFn): it wakes the
// Fom on the source it was made for, the outcome as the wake's payload.
class Waker {
 public:
  void operator()(Status status) const;  // wake_status() = status
  void operator()(bool delivered) const;  // a transfer: wake_value() 1 or 0
  // A spawn: wake_value() is the new pid, or wake_status() the failure.
  void operator()(Result<sim::ProcessId> spawned) const;

 private:
  friend class Fom;
  Waker(FomScheduler* scheduler, std::uint64_t id, WakeSource source)
      : scheduler_(scheduler),
        id_(id),
        source_(static_cast<std::uint64_t>(source)) {}
  WakeSource source() const { return static_cast<WakeSource>(source_); }

  FomScheduler* scheduler_;
  std::uint64_t id_ : 56;  // Fom ids count from 1 and never reach 2^56
  std::uint64_t source_ : 8;
};

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

  // Payload of the most recent wake (set by Wake before the Fom ticks).
  // Valid until the next wake overwrites it.
  const Status& wake_status() const { return wake_status_; }
  std::uint64_t wake_value() const { return wake_value_; }

 protected:
  explicit Fom(const char* name) : name_(name) {}

  // Runs the current phase. Called only by the scheduler.
  virtual FomStatus Tick() = 0;

  // Records a phase transition: closes the previous phase's trace span and
  // opens the next (span name = the Fom's name, "phase" note = phase_name),
  // under the phase parent. SetPhase records it without a span, for a wait
  // another operation's span covers.
  void EnterPhase(int phase, const char* phase_name);
  void SetPhase(int phase, const char* phase_name) {
    phase_ = phase;
    phase_name_ = phase_name;
  }

  // The span the phase spans nest under (default: the scope innermost when
  // each phase begins). A Fom that carries its operation's span sets it.
  void set_phase_parent(trace::SpanId parent) { phase_parent_ = parent; }

  // The completion for a wait on `source`; pair with `return WaitOn(...)`.
  Waker WakeFn(WakeSource source) const { return {scheduler_, id_, source}; }

  // Declares what the Fom sleeps on and returns kWait.
  FomStatus WaitOn(WakeSource source) {
    awaited_ = source;
    return FomStatus::kWait;
  }

  sim::Simulation& simulation() const;

  // The outcome of an operation whose owner was destroyed meanwhile.
  Status Gone() const {
    return NotFoundError(std::string(name_) + ": owner destroyed meanwhile");
  }

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
  // that finished synchronously inside Tick), which the drain consumes.
  WakeSource pending_ = WakeSource::kNone;
  Status wake_status_;
  std::uint64_t wake_value_ = 0;
  std::uint64_t timer_id_ = 0;  // outstanding ArmTimer event (0 = none)
  trace::SpanId phase_span_ = 0;
  trace::SpanId phase_parent_ = trace::kScopeParent;
  // How Create<T>() returns the block (the most-derived object's address).
  void (*dealloc_)(void*) = nullptr;
};

// The links of the operations in flight against one owner (a Dcdo, a
// DcdoManager, a ClassObject), which holds this as a member. Destroying it
// cuts every link and runs nothing.
class FomOwner {
 public:
  FomOwner() = default;
  FomOwner(const FomOwner&) = delete;
  FomOwner& operator=(const FomOwner&) = delete;
  ~FomOwner();

 private:
  friend class OwnerLink;
  OwnerLink* head_ = nullptr;
};

// A Fom working on an `Owner` across its waits. It reaches the owner only
// through owner(), null once the owner is destroyed: read it after a wait.
template <typename Owner>
class OwnedFom : public Fom {
 protected:
  OwnedFom(const char* name, Owner* owner, FomOwner& ops) : Fom(name) {
    owner_.Attach(owner, ops);
  }

  Owner* owner() const { return owner_.get<Owner>(); }

 private:
  OwnerLink owner_;
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
    fom->dealloc_ = [](void* p) { common::PoolFree<sizeof(T)>(p); };
    Register(fom);
    return fom;
  }

  // Enqueues the Fom and drains the run queue NOW, on the caller's stack —
  // the operation starts synchronously. Launch is Create, then Start.
  void Start(Fom& fom);
  template <typename T, typename... Args>
  void Launch(Args&&... args) {
    Start(*Create<T>(std::forward<Args>(args)...));
  }

  // Wakes Fom `id` waiting on `source`, with `status` and `value` as the
  // wake's payload (what a Waker calls). A stale id, or a source the Fom is
  // not waiting on, is a no-op.
  void Wake(std::uint64_t id, WakeSource source, Status status = Status(),
            std::uint64_t value = 0);

  // Schedules a kTimer wake after `delay` (a real Simulation::Schedule
  // event — the one legitimate way a Fom spends simulated time between
  // phases). The armed event is cancelled if the Fom is destroyed first.
  void ArmTimer(Fom& fom, sim::SimDuration delay);

  bool Alive(std::uint64_t id) const;
  std::size_t live_count() const;
  std::map<std::uint64_t, const Fom*> Live() const;  // by id

  sim::Simulation& simulation() const { return *simulation_; }

 private:
  void Register(Fom* fom);
  void Enqueue(Fom* fom);
  void Drain();
  void RunOne(Fom* fom);
  void Destroy(Fom* fom);

  sim::Simulation* simulation_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Fom*> live_;
  std::vector<Fom*> run_queue_;
};

inline sim::Simulation& Fom::simulation() const {
  return scheduler_->simulation();
}

}  // namespace dcdo::runtime
