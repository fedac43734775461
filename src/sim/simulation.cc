#include "sim/simulation.h"

#include <bit>
#include <utility>

namespace dcdo::sim {
namespace {

// Slot tick width of wheel level `level`, in nanoseconds (as a shift).
constexpr int LevelShift(int level) {
  return 16 + 6 * level;  // kGranularityBits + kSlotBits * level
}

}  // namespace

std::uint32_t Simulation::AllocSlot() {
  if (!free_slots_.empty()) {
    std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Simulation::FreeSlot(std::uint32_t slot) {
  Event& event = slab_[slot];
  event.fn = nullptr;
  ++event.gen;  // invalidates the old id and any stale queue key
  event.in_wheel = false;
  free_slots_.push_back(slot);
  --live_count_;
}

std::uint64_t Simulation::Schedule(SimDuration delay, Callback fn) {
  if (delay < SimDuration::Zero()) delay = SimDuration::Zero();
  return ScheduleAt(now_ + delay, std::move(fn));
}

std::uint64_t Simulation::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  const std::uint32_t slot = AllocSlot();
  Event& event = slab_[slot];
  event.when = when;
  event.seq = next_seq_++;
  event.fn = std::move(fn);
  ++live_count_;
  // Near-horizon events (due within one level-0 span of the clock) go to the
  // queue directly: they fire before slot boundaries matter, and skipping the
  // wheel avoids the slot insert + flush round trip for events that — unlike
  // long-range timers — are almost never cancelled. Checked here so the
  // dominant case (deliveries) never enters WheelInsert at all.
  constexpr std::int64_t kNearHorizonNs =
      std::int64_t{kSlotsPerLevel} << kGranularityBits;
  if (when.nanos() - now_.nanos() < kNearHorizonNs || !WheelInsert(slot)) {
    queue_.push(QueueKey{when, event.seq, slot, event.gen});
  }
  return MakeId(slot, event.gen);
}

bool Simulation::WheelInsert(std::uint32_t slot) {
  // An empty wheel carries no placement constraints, so pull the cursor up
  // to the clock; otherwise placements made long after the last flush would
  // land in needlessly coarse slots.
  if (wheel_count_ == 0 && now_.nanos() > cursor_ns_) cursor_ns_ = now_.nanos();
  Event& event = slab_[slot];
  const std::int64_t when_ns = event.when.nanos();
  if (when_ns <= cursor_ns_) return false;
  for (int level = 0; level < kWheelLevels; ++level) {
    const int shift = LevelShift(level);
    const std::int64_t when_tick = when_ns >> shift;
    const std::int64_t delta = when_tick - (cursor_ns_ >> shift);
    if (delta <= 0) return false;  // due within the current tick
    if (delta >= kSlotsPerLevel) continue;
    const int wslot = static_cast<int>(when_tick & (kSlotsPerLevel - 1));
    WheelLevel& wl = wheel_[level];
    event.in_wheel = true;
    event.wheel_level = static_cast<std::uint8_t>(level);
    event.wheel_slot = static_cast<std::uint8_t>(wslot);
    event.wheel_index = static_cast<std::uint32_t>(wl.slots[wslot].size());
    wl.slots[wslot].push_back(slot);
    wl.occupied |= std::uint64_t{1} << wslot;
    ++wheel_count_;
    const std::int64_t start_ns = when_tick << shift;
    if (earliest_valid_) {
      if (start_ns < earliest_.start_ns) {
        earliest_ = SlotRef{level, wslot, start_ns};
      }
    } else if (wheel_count_ == 1) {
      // The sole occupied slot is trivially the earliest.
      earliest_ = SlotRef{level, wslot, start_ns};
      earliest_valid_ = true;
    }
    return true;
  }
  return false;  // beyond the wheel span: sparse long-range event
}

std::optional<Simulation::SlotRef> Simulation::EarliestWheelSlot() const {
  if (earliest_valid_) return earliest_;
  std::optional<SlotRef> best;
  for (int level = 0; level < kWheelLevels; ++level) {
    const std::uint64_t occupied = wheel_[level].occupied;
    if (occupied == 0) continue;
    const int shift = LevelShift(level);
    const std::int64_t cursor_tick = cursor_ns_ >> shift;
    // Occupied slots hold ticks in [cursor_tick, cursor_tick + 64). Inserts
    // always land strictly after the cursor, but flushing a finer-level slot
    // whose start is aligned on a coarser boundary advances the cursor onto
    // the coarser slot's own tick — that slot is due now, so the window must
    // include cursor_tick or its tick would read as cursor_tick + 64, one
    // full revolution late. The aliasing is unambiguous: inserts require
    // delta <= 63, so the bit at cursor_tick's position can never mean
    // cursor_tick + 64. Rotate the bitmap so cursor_tick sits at bit 0 and
    // take the lowest set bit.
    const int base = static_cast<int>(cursor_tick & (kSlotsPerLevel - 1));
    const std::uint64_t rotated = std::rotr(occupied, base);
    const std::int64_t tick = cursor_tick + std::countr_zero(rotated);
    const std::int64_t start_ns = tick << shift;
    if (!best || start_ns < best->start_ns) {
      best = SlotRef{level, static_cast<int>(tick & (kSlotsPerLevel - 1)),
                     start_ns};
    }
  }
  if (best) {
    // Memoized-query cache: Simulation is single-threaded by construction
    // (one event loop; see DESIGN.md §3), so the unsynchronized mutable
    // write cannot race.
    earliest_ = *best;            // NOLINT(dcdo-mutable-nonatomic-in-const)
    earliest_valid_ = true;       // NOLINT(dcdo-mutable-nonatomic-in-const)
  }
  return best;
}

void Simulation::FlushWheelSlot(const SlotRef& ref) {
  WheelLevel& wl = wheel_[ref.level];
  wl.occupied &= ~(std::uint64_t{1} << ref.slot);
  earliest_valid_ = false;
  // Monotone advance: when this slot ties an already-flushed finer slot's
  // aligned start (see EarliestWheelSlot), the cursor is already there.
  if (ref.start_ns > cursor_ns_) cursor_ns_ = ref.start_ns;
  std::vector<std::uint32_t>& slots = wl.slots[ref.slot];
  // Re-dispatching never targets this same slot: every event here lies
  // within one level-`ref.level` tick of the new cursor, so it lands at a
  // finer level or in the queue. Iterating in place is therefore safe.
  for (std::uint32_t slot : slots) {
    Event& event = slab_[slot];
    event.in_wheel = false;
    --wheel_count_;
    if (ref.level == 0 || !WheelInsert(slot)) {
      queue_.push(QueueKey{event.when, event.seq, slot, event.gen});
    }
  }
  slots.clear();
}

void Simulation::WheelRemove(Event& event) {
  WheelLevel& wl = wheel_[event.wheel_level];
  std::vector<std::uint32_t>& slots = wl.slots[event.wheel_slot];
  const std::uint32_t index = event.wheel_index;
  if (index + 1 != slots.size()) {
    slots[index] = slots.back();
    slab_[slots[index]].wheel_index = index;
  }
  slots.pop_back();
  if (slots.empty()) {
    wl.occupied &= ~(std::uint64_t{1} << event.wheel_slot);
    // The emptied slot may have been the cached earliest; recompute lazily.
    earliest_valid_ = false;
  }
  --wheel_count_;
}

bool Simulation::PrepareTop() {
  for (;;) {
    // Purge keys whose slot has been freed (cancelled, or recycled since).
    while (!queue_.empty() && slab_[queue_.top().slot].gen != queue_.top().gen) {
      queue_.pop();
    }
    if (wheel_count_ == 0) return !queue_.empty();
    std::optional<SlotRef> slot = EarliestWheelSlot();
    if (queue_.empty() || slot->start_ns <= queue_.top().when.nanos()) {
      // A wheel event could precede (or tie with) the queue head; flush so
      // the queue's (when, seq) order decides.
      FlushWheelSlot(*slot);
      continue;
    }
    return true;
  }
}

bool Simulation::PopAndFire() {
  if (!PrepareTop()) return false;
  const QueueKey key = queue_.top();
  queue_.pop();
  now_ = key.when;
  // Free the slot before firing: the callback may schedule new events, which
  // can then recycle it (its generation is already bumped).
  Callback fn = std::move(slab_[key.slot].fn);
  FreeSlot(key.slot);
  if (digest_enabled_) {
    digest_ = (digest_ ^ static_cast<std::uint64_t>(key.when.nanos())) *
              1099511628211ull;  // FNV prime
  }
  fn();
  ++events_fired_;
  if (observer_) observer_(events_fired_);
  return true;
}

std::size_t Simulation::Run() {
  std::size_t fired = 0;
  while (PopAndFire()) ++fired;
  return fired;
}

std::size_t Simulation::RunUntil(SimTime deadline) {
  std::size_t fired = 0;
  while (PrepareTop() && queue_.top().when <= deadline) {
    if (PopAndFire()) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulation::RunWhile(const std::function<bool()>& predicate) {
  while (predicate()) {
    if (!PopAndFire()) return false;
  }
  return true;
}

void Simulation::Cancel(std::uint64_t event_id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(event_id);
  const std::uint32_t gen = static_cast<std::uint32_t>(event_id >> 32);
  if (slot >= slab_.size()) return;
  Event& event = slab_[slot];
  if (event.gen != gen) return;  // already fired or cancelled
  if (event.in_wheel) {
    WheelRemove(event);
  }
  // Queue-resident events leave a stale key in the heap; PrepareTop() purges
  // it by generation mismatch when it surfaces.
  FreeSlot(slot);
}

}  // namespace dcdo::sim
