#include "rpc/client.h"

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/pool_allocator.h"
#include "instrument/context.h"

namespace dcdo::rpc {
namespace {

// Process-global call-id allocator: call ids key the trace spans of a call,
// (origin node, call_id), so a per-client counter would collide the moment
// two clients share a node. Atomic: threaded stress tests drive clients from
// several OS threads.
std::atomic<std::uint64_t> g_next_call_id{1};

}  // namespace

struct RpcClient::CallState {
  ObjectId target;
  std::string method;    // slow path; empty when shipping by id
  FunctionId method_id;  // fast path; Invalid() when shipping by name
  std::shared_ptr<const ByteBuffer> args;  // shared by all attempts; may be null
  Callback done;
  ObjectAddress address;
  int attempts_this_binding = 0;
  // Pushed-rebind rounds consumed (capped at kLeaseRebindLimit;
  // each round restarts the per-binding retry schedule).
  int lease_rebind_rounds = 0;
  // Session state. `grant` is the slot the current attempt ships under, on
  // `address`'s session; `earlier_grants` holds the slots of activations the
  // call rebound away from. A call holds EVERY slot it ever attempted under
  // until it finishes: releasing a slot on rebind would let its seq advance,
  // and a later rebind back to that activation would then send a fresh seq —
  // re-executing a body that already ran there. Bounded by the rebind caps
  // (≤ 2 + kLeaseRebindLimit activations per call); empty unless the call
  // rebinds, so the common call never allocates for it.
  SlotGrant grant;
  std::vector<std::pair<ObjectAddress, SlotGrant>> earlier_grants;
  bool refreshed = false;
  bool finished = false;
  // True exactly while an attempt is on the wire with its timeout armed —
  // the state session replay may preempt. False during a rebind query (the
  // refresh continuation owns the call then, and preempting it would leave
  // two drivers racing) and while parked for a slot.
  bool attempt_in_flight = false;
  // True while queued for a slot on `address`'s session. Session replay only
  // retargets a parked call; its queued continuation then acquires a slot
  // at the new address when the stale session hands it one.
  bool parked = false;
  std::uint64_t call_id = 0;
  std::uint64_t timer_id = 0;
  // Trace carriage (0 = untraced): the whole-call span and the span of the
  // attempt currently on the wire.
  std::uint64_t span = 0;
  std::uint64_t attempt_span = 0;

  std::string_view method_name() const {
    if (!method.empty()) return method;
    if (method_id.valid()) return FunctionNameTable::Global().NameOf(method_id);
    return {};
  }
};

std::shared_ptr<RpcClient::CallState> RpcClient::AcquireCallState() {
  // allocate_shared puts the control block and the CallState in one node,
  // and the pool allocator recycles that node call-to-call — a finished
  // call's block is always the right size for the next Acquire, so the
  // steady state allocates nothing.
  return std::allocate_shared<CallState>(common::PoolAllocator<CallState>{});
}

void RpcClient::Invoke(const ObjectId& target, std::string method,
                       ByteBuffer args, Callback done) {
  std::shared_ptr<CallState> call = AcquireCallState();
  call->target = target;
  // Ship by id when the name is already interned somewhere in this process —
  // except configuration methods, which the configurable-object layer
  // dispatches by name before any method table sees them. The memoized last
  // resolution short-circuits the common same-method-again case; negative
  // results are never memoized (the name could be interned later).
  FunctionId id = FunctionId::Invalid();
  if (method == last_method_) {
    id = last_method_id_;
  } else if (!IsConfigMethodName(method)) {
    id = FunctionNameTable::Global().Find(method);
    if (id.valid()) {
      last_method_ = method;
      last_method_id_ = id;
    }
  }
  if (id.valid()) {
    call->method_id = id;
  } else {
    call->method = std::move(method);
  }
  if (!args.empty()) {
    // Pooled for the same reason as the call state: one shared-args node per
    // call, identical size every time.
    call->args = std::allocate_shared<const ByteBuffer>(
        common::PoolAllocator<ByteBuffer>{}, std::move(args));
  }
  call->done = std::move(done);
  StartCall(call);
}

void RpcClient::Invoke(const ObjectId& target, FunctionId method,
                       std::shared_ptr<const ByteBuffer> args, Callback done) {
  std::shared_ptr<CallState> call = AcquireCallState();
  call->target = target;
  call->method_id = method;
  call->args = std::move(args);
  call->done = std::move(done);
  StartCall(call);
}

void RpcClient::StartCall(const std::shared_ptr<CallState>& call) {
  calls_started_.Increment();
  call->call_id = g_next_call_id.fetch_add(1, std::memory_order_relaxed);
  if (auto* tr = instrument::Spans()) {
    // The whole-call span, keyed (origin node, call_id). Parent: whatever
    // scope is active — a call issued from inside a server handler (an
    // outcall) nests under that handler's dispatch span.
    call->span = tr->BeginSpan(
        "rpc.call",
        {.category = "client",
         .node = static_cast<std::uint32_t>(node_),
         .call_id = call->call_id},
        {{"method", call->method_name()}, {"target", call->target.ToString()}});
  }
  Result<ObjectAddress> address = cache_.Resolve(call->target);
  if (!address.ok()) {
    if (auto* tr = instrument::Spans()) {
      tr->EndSpan(call->span, "outcome", "unresolved");
    }
    call->done(address.status());
    return;
  }
  call->address = *address;
  // Register for session replay. Sweeping here (not at finish) keeps the
  // three finish paths untouched and bounds the registry by the concurrent
  // in-flight population.
  std::erase_if(inflight_, [](const std::weak_ptr<CallState>& weak) {
    std::shared_ptr<CallState> held = weak.lock();
    return held == nullptr || held->finished;
  });
  inflight_.push_back(call);
  AcquireSlot(call);
}

void RpcClient::Retarget(const std::shared_ptr<CallState>& call,
                         const ObjectAddress& fresh) {
  // A different address is a different activation, hence a different
  // session. The slot held at the old one is NOT released — a retry may yet
  // land there, and a rebind back must reuse it (AcquireSlot).
  if (call->grant.held()) {
    call->earlier_grants.emplace_back(call->address, call->grant);
    call->grant = SlotGrant{};
  }
  call->address = fresh;
  call->attempts_this_binding = 0;
}

void RpcClient::ReplaySession(const std::shared_ptr<CallState>& mover,
                              const ObjectAddress& stale,
                              bool resend_in_flight) {
  // AcquireSlot below never starts a new call, so inflight_ is stable across
  // the sweep; iteration in start order keeps the replay deterministic.
  for (const std::weak_ptr<CallState>& weak : inflight_) {
    std::shared_ptr<CallState> call = weak.lock();
    if (call == nullptr || call == mover || call->finished) continue;
    if (!(call->target == mover->target) || !(call->address == stale)) continue;
    if (call->parked) {
      // Queued for a slot at the stale activation: nothing of it is on the
      // wire, so only its destination changes. When the stale session hands
      // it a slot, its parked continuation sees the new address and
      // acquires there instead of attempting the dead one.
      call->address = mover->address;
      continue;
    }
    if (!resend_in_flight || !call->attempt_in_flight) continue;
    // A replay is a rebind round for the replayed call too: it consumes the
    // same per-call budget that caps push-chasing, so a perpetually churning
    // target still drives every sibling to termination.
    if (call->lease_rebind_rounds >= kLeaseRebindLimit) continue;
    ++call->lease_rebind_rounds;
    session_replays_.Increment();
    transport_.simulation().Cancel(call->timer_id);
    call->attempt_in_flight = false;
    DCDO_LOG(kDebug) << "rpc: session replay of " << call->method_name()
                     << " at " << mover->address.ToString();
    if (auto* tr = instrument::Spans()) {
      tr->Instant("rpc.session_replay",
                  {.category = "client",
                   .parent = call->span,
                   .node = static_cast<std::uint32_t>(node_),
                   .call_id = call->call_id});
      tr->EndSpan(call->attempt_span, "outcome", "replayed");
    }
    // Same mechanics as the mover's own switch: restart the retry round at
    // the fresh activation.
    Retarget(call, mover->address);
    AcquireSlot(call);
  }
}

void RpcClient::AcquireSlot(const std::shared_ptr<CallState>& call) {
  // Rebinding back to an activation this call already attempted: resend
  // under the SAME (slot, seq), so a body that executed there replays its
  // cached answer instead of running again.
  auto& earlier = call->earlier_grants;
  for (auto it = earlier.begin(); it != earlier.end(); ++it) {
    if (it->first == call->address) {
      call->grant = it->second;
      earlier.erase(it);
      Attempt(call);
      return;
    }
  }
  // Fast path: a free slot is granted inline, with no continuation built.
  if (SlotGrant grant = sessions_.TryAcquire(call->address); grant.held()) {
    call->grant = grant;
    Attempt(call);
    return;
  }
  call->parked = true;
  sessions_.Park(
      call->address, [this, call, address = call->address](SlotGrant grant) {
        call->parked = false;
        if (call->finished || !(call->address == address)) {
          // The call died while parked, or session replay moved it off this
          // activation. Either way nothing was ever sent under this grant,
          // so the slot goes straight back.
          sessions_.Release(address, grant);
          if (!call->finished) AcquireSlot(call);
          return;
        }
        call->grant = grant;
        Attempt(call);
      });
}

void RpcClient::ReleaseSlots(const std::shared_ptr<CallState>& call) {
  // May hand each slot straight to a parked caller, whose first attempt then
  // runs inline here.
  for (auto& [addr, grant] : call->earlier_grants) {
    sessions_.Release(addr, grant);
  }
  call->earlier_grants.clear();
  const SlotGrant grant = call->grant;
  call->grant = SlotGrant{};
  sessions_.Release(call->address, grant);
}

void RpcClient::Attempt(const std::shared_ptr<CallState>& call) {
  sim::Simulation& simulation = transport_.simulation();
  ++call->attempts_this_binding;
  call->attempt_in_flight = true;

  auto* tr = instrument::Spans();
  if (tr != nullptr) {
    call->attempt_span =
        tr->BeginSpan("rpc.attempt",
                      {.category = "client",
                       .parent = call->span,
                       .node = static_cast<std::uint32_t>(node_),
                       .call_id = call->call_id,
                       .attempt = call->attempts_this_binding});
    if (call->refreshed) tr->Annotate(call->attempt_span, "binding", "rebound");
  }

  MethodInvocation invocation;
  invocation.target = call->target;
  if (call->method_id.valid()) {
    invocation.SetMethodId(call->method_id);
  } else {
    invocation.method = call->method;
  }
  if (call->args) invocation.SetSharedArgs(call->args);
  invocation.expected_epoch = call->address.epoch;
  invocation.call_id = call->call_id;
  // Every retry of this call resends identical values — that stability is
  // what the server's per-slot seq comparison keys on.
  invocation.session_id = call->grant.session_id;
  invocation.session_slot = call->grant.slot;
  invocation.session_seq = call->grant.seq;

  // Arm the timeout before sending; the reply cancels it. The timer lands in
  // the simulator's timing wheel, so the overwhelmingly common arm-then-
  // cancel round trip is two O(1) operations with immediate reclamation.
  call->timer_id = simulation.Schedule(
      transport_.cost_model().invocation_timeout,
      [this, call]() { OnTimeout(call); });

  // The attempt span is the scope while the transport marshals and hands the
  // message to the network, so rpc.send / net.xfer nest beneath it. The pop
  // must also run when Invoke throws (the marshal-failure path rethrows) —
  // a leaked scope would parent later spans under a dead attempt.
  if (tr != nullptr) tr->PushScope(call->attempt_span);
  try {
    transport_.Invoke(
        node_, call->address.node, call->address.pid, std::move(invocation),
        [this, call, attempt_span = call->attempt_span](MethodResult result) {
          if (call->finished) return;  // a late reply after we gave up
          call->finished = true;
          transport_.simulation().Cancel(call->timer_id);
          ReleaseSlots(call);
          if (auto* tr2 = instrument::Spans()) {
            // attempt_span is captured by value: a late reply from an earlier
            // attempt must close THAT attempt's span (a no-op if OnTimeout
            // already did), never the newer attempt's span that has since
            // overwritten call->attempt_span.
            tr2->EndSpan(attempt_span, "outcome",
                         result.status.ok() ? "reply" : "error");
            if (call->attempt_span != attempt_span) {
              // The newer attempt still on the wire will never get its own
              // answer (the server dedups it); close its span honestly.
              tr2->EndSpan(call->attempt_span, "outcome", "superseded");
            }
            tr2->EndSpan(call->span);
          }
          if (result.status.ok()) {
            call->done(std::move(result.payload));
          } else {
            call->done(std::move(result.status));
          }
        });
  } catch (...) {
    if (tr != nullptr) tr->PopScope();
    throw;
  }
  if (tr != nullptr) tr->PopScope();
}

void RpcClient::OnTimeout(const std::shared_ptr<CallState>& call) {
  if (call->finished) return;
  call->attempt_in_flight = false;
  timeouts_.Increment();
  const sim::CostModel& cost = transport_.cost_model();
  if (auto* tr = instrument::Spans()) {
    tr->Instant("rpc.timeout", {.category = "client",
                                .parent = call->attempt_span,
                                .node = static_cast<std::uint32_t>(node_),
                                .call_id = call->call_id,
                                .attempt = call->attempts_this_binding});
    tr->EndSpan(call->attempt_span, "outcome", "timeout");
  }

  if (cost.binding_lease_duration > sim::SimDuration::Zero() &&
      call->lease_rebind_rounds < kLeaseRebindLimit) {
    // Under leases the directory pushes a rebound object's fresh binding to
    // this cache; if one arrived while the attempt was on the wire, switch
    // to it now instead of probing the dead address through the rest of the
    // timeout schedule. Capped at kLeaseRebindLimit rounds per call: each
    // switch restarts the retry schedule, and an uncapped call chasing a
    // churning object could retry forever. A call past the cap falls
    // through to the normal probe schedule and terminal timeout.
    std::optional<ObjectAddress> pushed = cache_.CachedAddress(call->target);
    if (pushed.has_value() && !(*pushed == call->address)) {
      ++call->lease_rebind_rounds;
      lease_rebinds_.Increment();
      DCDO_LOG(kDebug) << "rpc: lease push rebound " << call->target << " to "
                       << pushed->ToString();
      if (auto* tr = instrument::Spans()) {
        tr->Instant("rpc.lease_rebind",
                    {.category = "client",
                     .parent = call->span,
                     .node = static_cast<std::uint32_t>(node_),
                     .call_id = call->call_id});
      }
      const ObjectAddress stale = call->address;
      Retarget(call, *pushed);
      AcquireSlot(call);
      // This call discovered the move; sibling calls to the same target
      // follow it now instead of burning their own schedules.
      ReplaySession(call, stale, /*resend_in_flight=*/true);
      return;
    }
  }

  if (call->attempts_this_binding <= cost.stale_retry_count) {
    DCDO_LOG(kDebug) << "rpc: timeout on " << call->method_name() << ", retry "
                     << call->attempts_this_binding;
    Attempt(call);
    return;
  }

  if (!call->refreshed) {
    // All retries on the cached binding went unanswered: declare it stale
    // and consult the binding agent (paying the rebind query cost).
    call->refreshed = true;
    call->attempts_this_binding = 0;
    rebinds_.Increment();
    std::uint64_t rebind_span = 0;
    if (auto* tr = instrument::Spans()) {
      rebind_span =
          tr->BeginSpan("rpc.rebind", {.category = "client",
                                       .parent = call->span,
                                       .node = static_cast<std::uint32_t>(node_),
                                       .call_id = call->call_id});
    }
    sim::Simulation& simulation = transport_.simulation();
    simulation.Schedule(cost.rebind_query, [this, call, rebind_span]() {
      if (call->finished) return;
      // The query's cost is the delay above; the agent answers at once.
      Result<ObjectAddress> fresh = cache_.RefreshFromAgent(call->target);
      if (!fresh.ok()) {
        call->finished = true;
        ReleaseSlots(call);
        if (auto* tr = instrument::Spans()) {
          tr->EndSpan(rebind_span, "outcome", "unbound");
          tr->EndSpan(call->span, "outcome", "unavailable");
        }
        call->done(UnavailableError("object " + call->target.ToString() +
                                    " has no current binding"));
        return;
      }
      DCDO_LOG(kDebug) << "rpc: rebound " << call->target << " to "
                       << fresh->ToString();
      if (auto* tr = instrument::Spans()) {
        tr->EndSpan(rebind_span, "address", fresh->ToString());
      }
      if (*fresh == call->address) {
        // Same binding reconfirmed: keep the slot (and seq) we hold.
        Attempt(call);
        return;
      }
      const ObjectAddress stale = call->address;
      Retarget(call, *fresh);
      AcquireSlot(call);
      // Calls parked for a stale slot follow the refreshed answer. Calls on
      // the wire keep their own schedules: without leases every stale call
      // pays the stale-binding schedule the paper measures. Resending them
      // here would give the first discoverer the full schedule and each
      // sibling anything below it, so the stale tail's p99 would swing by
      // seconds with how many calls happened to discover first.
      ReplaySession(call, stale, /*resend_in_flight=*/false);
    });
    return;
  }

  call->finished = true;
  ReleaseSlots(call);
  if (auto* tr = instrument::Spans()) {
    tr->EndSpan(call->span, "outcome", "timeout");
  }
  call->done(TimeoutError("invocation of " +
                          std::string(call->method_name()) + " on " +
                          call->target.ToString() + " timed out after rebind"));
}

Result<ByteBuffer> RpcClient::DriveToCompletion(
    std::optional<Result<ByteBuffer>>& out) {
  transport_.simulation().RunWhile([&out]() { return !out.has_value(); });
  if (!out.has_value()) {
    return InternalError("simulation drained before the reply arrived");
  }
  return std::move(*out);
}

Result<ByteBuffer> RpcClient::InvokeBlocking(const ObjectId& target,
                                             std::string method,
                                             ByteBuffer args) {
  std::optional<Result<ByteBuffer>> out;
  Invoke(target, std::move(method), std::move(args),
         [&out](Result<ByteBuffer> result) { out.emplace(std::move(result)); });
  return DriveToCompletion(out);
}

Result<ByteBuffer> RpcClient::InvokeBlocking(
    const ObjectId& target, FunctionId method,
    std::shared_ptr<const ByteBuffer> args) {
  std::optional<Result<ByteBuffer>> out;
  Invoke(target, method, std::move(args),
         [&out](Result<ByteBuffer> result) { out.emplace(std::move(result)); });
  return DriveToCompletion(out);
}

}  // namespace dcdo::rpc
