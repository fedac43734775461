#include "rpc/session.h"

#include <atomic>
#include <utility>

namespace dcdo::rpc {
namespace {

// Process-global session-id allocator, for the same reason call ids are
// global (client.cc): the server keys sessions by (origin node, session_id),
// and two clients sharing a node must not collide. 0 stays the "no session"
// sentinel.
std::atomic<std::uint64_t> g_next_session_id{1};

}  // namespace

SessionPool::Session& SessionPool::SessionFor(const ObjectAddress& address) {
  AddressKey key{address.node, address.pid, address.epoch};
  Session& session = sessions_[key];
  if (session.id == 0) {
    session.id = g_next_session_id.fetch_add(1, std::memory_order_relaxed);
    session.next_seq.assign(slots_, 1);
    session.free_slots.reserve(slots_);
    // Pushed descending so the LIFO hands out slot 0 first.
    for (std::uint32_t s = slots_; s > 0; --s) {
      session.free_slots.push_back(s - 1);
    }
  }
  return session;
}

SlotGrant SessionPool::TakeFreeSlot(Session& session) {
  SlotGrant grant;
  grant.session_id = session.id;
  grant.slot = session.free_slots.back();
  session.free_slots.pop_back();
  grant.seq = session.next_seq[grant.slot]++;
  return grant;
}

SlotGrant SessionPool::TryAcquire(const ObjectAddress& address) {
  Session& session = SessionFor(address);
  if (session.free_slots.empty()) return {};
  return TakeFreeSlot(session);
}

void SessionPool::Park(const ObjectAddress& address, GrantFn fn) {
  // Slot-saturated: park the caller instead of putting more on the wire.
  backpressure_waits_.Increment();
  ++queued_;
  SessionFor(address).waiting.push_back(std::move(fn));
}

void SessionPool::Release(const ObjectAddress& address, const SlotGrant& grant) {
  if (!grant.held()) return;
  AddressKey key{address.node, address.pid, address.epoch};
  auto it = sessions_.find(key);
  if (it == sessions_.end() || it->second.id != grant.session_id) {
    // The session this grant came from is gone (nothing erases sessions
    // today, but a stale grant must never corrupt a successor's free list).
    return;
  }
  Session& session = it->second;
  if (session.waiting.empty()) {
    session.free_slots.push_back(grant.slot);
    return;
  }
  // Hand the freed slot straight to the longest waiter; the slot never
  // touches the free list, so FIFO admission is exact.
  GrantFn next = std::move(session.waiting.front());
  session.waiting.pop_front();
  --queued_;
  SlotGrant handed;
  handed.session_id = session.id;
  handed.slot = grant.slot;
  handed.seq = session.next_seq[grant.slot]++;
  next(handed);
}

ServerSessionTable::Decision ServerSessionTable::Admit(
    sim::NodeId origin, std::uint64_t session_id, std::uint32_t slot,
    std::uint64_t seq) {
  if (slot >= kMaxSlots || seq == 0) return {Disposition::kDropStale};
  Session& session = sessions_[{origin, session_id}];
  if (slot >= session.slots.size()) session.slots.resize(slot + 1);
  Slot& state = session.slots[slot];
  if (seq > state.seq) {
    // A new call on this slot. seq may skip values: the client abandons a
    // call (terminal timeout) without the server ever seeing it, then the
    // slot's next occupant arrives. Taking over the slot retires the
    // previous cached reply — safe because the client serializes the slot's
    // calls, so a newer seq proves the older call's retries have ceased.
    // The payload keeps its capacity for the successor's reply.
    state.seq = seq;
    state.completed = false;
    state.reply.status = Status::Ok();
    state.reply.payload.Clear();
    return {Disposition::kExecute};
  }
  if (seq == state.seq) {
    if (state.completed) return {Disposition::kReplayReply, &state.reply};
    return {Disposition::kDropInFlight};
  }
  return {Disposition::kDropStale};
}

void ServerSessionTable::Complete(sim::NodeId origin, std::uint64_t session_id,
                                  std::uint32_t slot, std::uint64_t seq,
                                  const MethodResult& reply) {
  auto it = sessions_.find({origin, session_id});
  if (it == sessions_.end()) return;
  if (slot >= it->second.slots.size()) return;
  Slot& state = it->second.slots[slot];
  if (state.seq != seq) return;  // the slot moved on; this reply is a ghost
  state.completed = true;
  state.reply = reply;
}

std::size_t ServerSessionTable::slot_count() const {
  std::size_t total = 0;
  for (const auto& [key, session] : sessions_) total += session.slots.size();
  return total;
}

}  // namespace dcdo::rpc
