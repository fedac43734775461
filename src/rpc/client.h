// RpcClient: the caller side of Legion method invocation.
//
// Implements the full client protocol, including the stale-binding recovery
// the paper measures (Section 4):
//
//   resolve binding from local cache
//     -> send invocation, arm invocation_timeout
//     -> on timeout, retry the same address (stale_retry_count times)
//     -> still silent: declare the binding stale, pay rebind_query to the
//        binding agent, and retry the fresh address
//     -> if the refreshed round also times out, fail with kTimeout.
//
// With the default CostModel (10 s timeout, 2 retries, ~0.9 s rebind) a
// client takes ~30 s to recover from a stale binding — inside the paper's
// observed 25-35 s band.
//
// When the binding agent grants leases (binding_lease_duration > 0), the
// directory pushes fresh bindings into this client's cache the moment an
// object rebinds; a timed-out attempt then notices the pushed replacement
// and switches to it immediately instead of finishing the probe schedule,
// and new calls resolve the fresh address before their first send. A call
// switches to pushed bindings at most kLeaseRebindLimit times — each switch
// restarts the retry round, so an uncapped call chasing a churning object
// could retry forever (DESIGN.md §9.2).
//
// Every call occupies a slot of the per-server-endpoint session
// (src/rpc/session.h) for its whole lifetime: the slot is acquired before
// the first attempt (queueing client-side when all are busy — the
// admission/backpressure point) and every slot the call ever attempted under
// is released only when the call finishes — a rebind keeps the old
// activation's slot so a rebind BACK resends the same (slot, seq) and
// replays instead of re-executing. Retries carry the same (session, slot,
// seq), which is what lets the server dedup them from never-expiring
// O(slots) state.
//
// Session replay on reconnect: when one call discovers its target moved,
// OTHER unanswered calls to the same target still aimed at the stale
// activation follow it. Calls still queued for a stale slot are retargeted
// on any discovery (a lease-pushed fresh binding seen at timeout, or a
// directory refresh answering with a new address), so they acquire at the
// new activation once admitted instead of probing the dead one. Calls on
// the wire are resent only on a lease push — the pending timer is cancelled
// and a slot acquired at the new activation on the spot; with it, a
// restarted server's recovery time no longer scales with the retry schedule
// length. Without leases each call on the wire keeps its own stale-binding
// schedule, so every stale call pays the same ~30 s the paper measures
// instead of a share that depends on where its start fell in the first
// discoverer's schedule. Each resent call consumes a pushed-rebind round
// (the kLeaseRebindLimit cap), so a churning target still terminates, and
// the per-activation (slot, seq) dedup is what keeps the resends
// exactly-once.
//
// Fast-path mechanics (invisible to callers):
//   * per-call state comes from a thread-local free list, not the heap;
//   * arguments live in one shared buffer for the life of the call, so every
//     retry attempt reuses it instead of copying;
//   * a method name that is already interned (and is not a configuration
//     method) ships as a fixed-width FunctionId — the server dispatches with
//     zero string hashing. Never-interned names use the string wire form.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/object_id.h"
#include "common/status.h"
#include "dfm/function_id.h"
#include "instrument/metrics.h"
#include "naming/binding_cache.h"
#include "rpc/session.h"
#include "rpc/transport.h"

namespace dcdo::rpc {

// Lease-pushed rebind rounds (and session replays) one call may take. Each
// restarts the call's retry round, so without it a call chasing a migrating
// target would retry forever; past it the call falls back to the ordinary
// stale-binding schedule and then fails. Irrelevant with leases off.
inline constexpr int kLeaseRebindLimit = 3;

class RpcClient {
 public:
  using Callback = std::function<void(Result<ByteBuffer>)>;

  // The agent pointer is non-const: under leases the cache registers itself
  // as a leaseholder (and lease-granting lookups record it).
  RpcClient(RpcTransport* transport, BindingAgent* agent, sim::NodeId node)
      : transport_(*transport),
        cache_(agent, node),
        node_(node),
        sessions_(transport->cost_model().session_slots) {}

  // Asynchronous invocation; `done` runs exactly once, in sim time.
  // Ships by-id when `method` is already interned and not a config method.
  void Invoke(const ObjectId& target, std::string method, ByteBuffer args,
              Callback done);

  // By-id invocation for callers that hold a pre-resolved FunctionId (the
  // proxy layer). `args` may be null for an empty argument list; the same
  // buffer is shared across retry attempts.
  void Invoke(const ObjectId& target, FunctionId method,
              std::shared_ptr<const ByteBuffer> args, Callback done);

  // Convenience for tests/examples: drives the simulation until the reply
  // (or terminal failure) arrives and returns it.
  [[nodiscard]] Result<ByteBuffer> InvokeBlocking(const ObjectId& target, std::string method,
                                    ByteBuffer args = {});
  [[nodiscard]] Result<ByteBuffer> InvokeBlocking(const ObjectId& target, FunctionId method,
                                    std::shared_ptr<const ByteBuffer> args = {});

  sim::NodeId node() const { return node_; }
  BindingCache& cache() { return cache_; }

  std::uint64_t timeouts() const { return timeouts_.value(); }
  std::uint64_t rebinds() const { return rebinds_.value(); }
  std::uint64_t calls_started() const { return calls_started_.value(); }
  // Calls that switched to a lease-pushed fresh binding mid-flight instead
  // of burning the full timeout-probe schedule. Always 0 with leases off.
  std::uint64_t lease_rebinds() const { return lease_rebinds_.value(); }
  // Session admission: calls that ever had to queue for a slot, and calls
  // currently parked waiting.
  std::uint64_t backpressure_waits() const {
    return sessions_.backpressure_waits();
  }
  std::size_t queued_calls() const { return sessions_.queued(); }
  // In-flight calls resent at a fresh activation because a sibling call to
  // the same target discovered the move first (session replay).
  std::uint64_t session_replays() const { return session_replays_.value(); }

 private:
  struct CallState;
  // One pooled allocation covering the CallState and its shared_ptr control
  // block, recycled call-to-call through common::PoolAllocator.
  static std::shared_ptr<CallState> AcquireCallState();
  void StartCall(const std::shared_ptr<CallState>& call);
  void Attempt(const std::shared_ptr<CallState>& call);
  void OnTimeout(const std::shared_ptr<CallState>& call);
  // Session slot lifecycle: AcquireSlot runs Attempt once a slot on the
  // call's current address is granted (reusing the call's earlier grant
  // when it rebinds back to an activation it already attempted, inline when
  // a slot is free, queued otherwise); ReleaseSlots returns every slot the
  // call holds when it finishes.
  void AcquireSlot(const std::shared_ptr<CallState>& call);
  void ReleaseSlots(const std::shared_ptr<CallState>& call);
  // Points the call at `fresh` and restarts its retry round there, keeping
  // the slot held at the old activation.
  void Retarget(const std::shared_ptr<CallState>& call,
                const ObjectAddress& fresh);
  // `mover` just switched from `stale` to its current address: retarget
  // every other call to the same target still parked for a slot at `stale`,
  // and when `resend_in_flight`, resend those on the wire to it as well
  // (session replay).
  void ReplaySession(const std::shared_ptr<CallState>& mover,
                     const ObjectAddress& stale, bool resend_in_flight);
  [[nodiscard]] Result<ByteBuffer> DriveToCompletion(std::optional<Result<ByteBuffer>>& out);

  RpcTransport& transport_;
  BindingCache cache_;
  sim::NodeId node_;
  // Per-server-endpoint sessions.
  SessionPool sessions_;
  // Unfinished calls in start order, for the replay sweep. Entries are weak:
  // the registry must not extend a finished call's pooled lifetime. Swept of
  // dead entries each time a call registers, so it tracks the concurrent
  // in-flight population, not call history.
  std::vector<std::weak_ptr<CallState>> inflight_;
  // One-entry memo of the last name->id resolution. The intern table is
  // append-only and a name's id is immutable, so a positive memo can never
  // go stale; steady-state callers re-invoking the same method skip the
  // global table's shared lock and hash probe entirely.
  std::string last_method_;
  FunctionId last_method_id_;
  // Call ids are allocated from a process-global atomic (client.cc): trace
  // spans key on (origin node, call_id), and two clients on one node each
  // counting from 1 would collide.
  trace::Counter timeouts_;
  trace::Counter rebinds_;
  trace::Counter calls_started_;
  trace::Counter lease_rebinds_;
  trace::Counter session_replays_;
};

}  // namespace dcdo::rpc
