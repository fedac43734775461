// Deterministic discrete-event simulation engine.
//
// The Legion substrate (hosts, network, RPC, binding agents) runs as event
// handlers over this engine. Events fire in (time, insertion-sequence) order,
// so two runs of the same scenario produce identical traces. The engine is
// single-threaded: "threads" executing inside DCDOs are modelled as activity
// intervals (paper Section 3.2, thread activity monitoring), not OS threads.
//
// Storage layout: every pending event lives in a slab slot; its id encodes
// (slot, generation), so Cancel() is a direct array access — no hashing.
// Two complementary containers order the slots:
//   * a hierarchical timing wheel for the common timer shape — armed with a
//     bounded horizon and almost always cancelled before firing (RPC
//     invocation timeouts, transport retries). Arming is O(1) (a slot
//     push), and Cancel() unlinks the entry immediately, so a cancelled
//     timer's callback is reclaimed at cancel time instead of surviving in
//     a heap until its deadline surfaces;
//   * a priority queue of small POD keys for near-horizon and long-range
//     events, and as the ordered staging area: wheel slots that come due are
//     flushed into the queue, which restores exact (time, seq) order. FIFO
//     among same-time events therefore holds across both containers — seq is
//     assigned at Schedule() time, not at flush time. Heap sifts move 24-byte
//     keys, never the callbacks themselves.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/move_function.h"
#include "sim/sim_time.h"

namespace dcdo::sim {

class Simulation {
 public:
  // Move-only. The 64-byte buffer is sized for the engine's small closures —
  // timer callbacks and network delivery wrappers (this + a Delivery) — which
  // are the per-event conversions on the hot path. Bulky closures (marshaled
  // invocations) fall back to one heap block and then move by pointer, so
  // relocation never deep-moves big captures.
  using Callback = common::MoveFunction<void(), 64>;

  // Slot 0 is burned with a non-zero generation so no real event ever gets
  // id 0 — callers use 0 as a "no timer armed" sentinel.
  Simulation() { slab_.emplace_back().gen = 1; }
  // Drops the attachment first: a Fom scheduler torn down with the
  // simulation cancels its Foms' timers in the slab and wheel, which must
  // still be whole.
  ~Simulation() { attachment_.reset(); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Returns an event id usable with
  // Cancel(). Negative delays are clamped to zero.
  std::uint64_t Schedule(SimDuration delay, Callback fn);
  // Schedules `fn` at `when`; a time in the past is clamped to now.
  std::uint64_t ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event; no-op if it already fired or was cancelled.
  // O(1) for both containers: the id addresses the slab slot directly, and
  // the callback is destroyed at cancel time. (A queue-resident event leaves
  // a stale heap key behind, purged when it surfaces.)
  void Cancel(std::uint64_t event_id);

  // Runs until the queue is empty. Returns the number of events fired.
  std::size_t Run();

  // Runs events with time <= `deadline`; the clock ends at `deadline` if the
  // queue empties early. Returns events fired.
  std::size_t RunUntil(SimTime deadline);

  // Fires events while `predicate()` returns true (checked before every
  // event). Returns true once the predicate turns false, false if the queue
  // empties first with the predicate still true.
  bool RunWhile(const std::function<bool()>& predicate);

  bool Idle() const { return live_count_ == 0; }
  // Exact: cancelled events are removed from the count immediately.
  std::size_t pending_events() const { return live_count_; }

  // Total events fired since construction (monotone; identifies "when" an
  // observation was made independent of the clock, which can stall).
  std::uint64_t events_fired() const { return events_fired_; }

  // Observer called with the running event count after each event.
  // One observer at most (the checking layer); pass nullptr to clear.
  using EventObserver = std::function<void(std::uint64_t)>;
  void SetEventObserver(EventObserver observer) {
    observer_ = std::move(observer);
  }

  // Advances the clock with no event (used by host-local cost charging when
  // the caller is executing "inline" rather than via an event).
  void AdvanceInline(SimDuration delta) { now_ = now_ + delta; }

  // Order-hash of fired events: one FNV chain over their timestamps, so two
  // runs agree iff they fired the same events at the same times in the same
  // order. Off by default; enable before the first event fires.
  void EnableDeterminismDigest(bool on) { digest_enabled_ = on; }
  std::uint64_t DeterminismDigest() const { return digest_; }

  // One opaque per-simulation attachment, for layers above the engine that
  // need simulation-lifetime state without the engine depending on them
  // (the Fom scheduler, runtime/fom.h, is the user). The slot is typed by
  // convention: whoever sets it owns the meaning.
  const std::shared_ptr<void>& attachment() const { return attachment_; }
  void set_attachment(std::shared_ptr<void> attachment) {
    attachment_ = std::move(attachment);
  }

 private:
  // Slab entry for one pending event. `gen` is bumped when the slot is
  // freed (fire or cancel), invalidating any id or heap key minted for the
  // previous occupant.
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    Callback fn;
    std::uint32_t gen = 0;
    // Wheel position, meaningful only while wheel-resident.
    std::uint32_t wheel_index = 0;  // position within the slot vector
    std::uint8_t wheel_level = 0;
    std::uint8_t wheel_slot = 0;
    bool in_wheel = false;
  };
  // What the priority queue orders: a trivially-copyable key. Sifts memcpy
  // these instead of moving callbacks.
  struct QueueKey {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const QueueKey& a, const QueueKey& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // --- Hierarchical timing wheel ---
  // Level l has 64 slots of tick 2^(16 + 6l) ns: level 0 resolves ~65.5 us
  // ticks spanning ~4.2 ms, level 3 spans ~18 min. Events beyond the top
  // span (or due within one level-0 span of the clock) go straight to the
  // queue.
  static constexpr int kWheelLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;
  static constexpr int kGranularityBits = 16;

  struct WheelLevel {
    std::array<std::vector<std::uint32_t>, kSlotsPerLevel> slots;
    std::uint64_t occupied = 0;  // bit s set iff slots[s] is non-empty
  };
  struct SlotRef {
    int level;
    int slot;
    std::int64_t start_ns;  // slot interval start (all events are >= this)
  };

  static std::uint64_t MakeId(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }

  std::uint32_t AllocSlot();
  // Destroys the callback, bumps the generation, and recycles the slot.
  void FreeSlot(std::uint32_t slot);

  // Places the event in `slot` into the wheel if its deadline fits a future
  // wheel slot. Returns false when it belongs in the queue.
  bool WheelInsert(std::uint32_t slot);
  // The occupied wheel slot with the earliest interval start, if any.
  std::optional<SlotRef> EarliestWheelSlot() const;
  // Flushes `ref`: level-0 events into the queue, higher levels cascade into
  // finer slots. Advances the wheel cursor to the slot start.
  void FlushWheelSlot(const SlotRef& ref);
  // Removes a wheel-resident event from its slot (swap-remove + index fixup).
  void WheelRemove(Event& event);
  // Establishes the next live event at queue_.top(): purges stale keys and
  // flushes every wheel slot that could precede the queue head. Returns
  // false when nothing is left to fire.
  bool PrepareTop();
  bool PopAndFire();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  std::size_t live_count_ = 0;
  bool digest_enabled_ = false;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV offset basis
  EventObserver observer_;
  std::shared_ptr<void> attachment_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<QueueKey, std::vector<QueueKey>, Later> queue_;
  // Everything strictly before cursor_ns_ has been flushed out of the wheel.
  std::int64_t cursor_ns_ = 0;
  std::size_t wheel_count_ = 0;
  // Cached result of EarliestWheelSlot(); invalidated whenever a slot empties
  // (flush or cancel) and updated in place on insert. Mutable: the scan is a
  // logically-const query memoized across PrepareTop() iterations.
  mutable bool earliest_valid_ = false;
  mutable SlotRef earliest_{};
  std::array<WheelLevel, kWheelLevels> wheel_;
};

}  // namespace dcdo::sim
