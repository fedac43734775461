#include "rpc/transport.h"

#include <memory>
#include <string>

#include "common/logging.h"
#include "common/pool_allocator.h"
#include "instrument/context.h"
#include "rpc/session.h"

namespace dcdo::rpc {

namespace {

// One call in flight: the invocation and the caller's continuation ride the
// whole round trip together in a single pooled block. Every closure along
// the way (delivery, the handler's reply functor, the reply delivery)
// captures only the owning pointer, so the large payloads are moved into
// place exactly once and the closures stay within their inline buffers.
struct InFlight {
  RpcTransport* transport;
  sim::NodeId from_node;
  sim::NodeId to_node;
  sim::ProcessId to_pid;
  MethodInvocation invocation;
  ReplyFn on_reply;
  // Set when the call is admitted: the receiving endpoint's session table,
  // so the reply functor can cache the handler's answer for replay.
  std::shared_ptr<ServerSessionTable> sessions;
  // Trace carriage across the async hops (0 = untraced).
  std::uint64_t send_span = 0;
  std::uint64_t dispatch_span = 0;
};

struct InFlightDelete {
  void operator()(InFlight* call) const noexcept {
    call->~InFlight();
    common::PoolFree<sizeof(InFlight)>(call);
  }
};
using InFlightPtr = std::unique_ptr<InFlight, InFlightDelete>;

}  // namespace

void RpcTransport::RegisterEndpoint(sim::NodeId node, sim::ProcessId pid,
                                    std::uint64_t epoch, Handler handler) {
  endpoints_[{node, pid}] = Endpoint{epoch, std::move(handler),
                                     std::make_shared<ServerSessionTable>()};
  DCDO_INSTRUMENT(EndpointOpened(node, pid, epoch));
}

void RpcTransport::UnregisterEndpoint(sim::NodeId node, sim::ProcessId pid) {
  endpoints_.erase({node, pid});
  DCDO_INSTRUMENT(EndpointClosed(node, pid));
}

void RpcTransport::Invoke(sim::NodeId from_node, sim::NodeId to_node,
                          sim::ProcessId to_pid, MethodInvocation invocation,
                          ReplyFn on_reply) {
  const sim::CostModel& cost = cost_model();
  sim::Simulation& simulation = network_.simulation();

  // The send span covers marshaling and the hand-off to the network; the
  // net.xfer span begun inside network_.Send nests under it via the scope
  // stack. Its id travels in the InFlight block so the server-side dispatch
  // span can name it as parent — the cross-node causal edge.
  std::uint64_t send_span = 0;
  if (auto* tr = instrument::Spans()) {
    send_span = tr->BeginSpan(
        "rpc.send", {.category = "transport",
                     .node = static_cast<std::uint32_t>(from_node),
                     .call_id = invocation.call_id});
    tr->PushScope(send_span);
  }

  // Sender-side marshaling happens before the message hits the wire.
  simulation.AdvanceInline(
      cost.rpc_marshal_per_call +
      sim::SimDuration::Seconds(static_cast<double>(invocation.args().size()) /
                                cost.marshal_bytes_per_sec));

  std::size_t wire_bytes = invocation.WireSize();
  // Return the block to the pool if a member's move constructor throws
  // (mirrors the spill path in MoveFunction).
  void* block = common::PoolAllocate<sizeof(InFlight)>();
  InFlightPtr call;
  try {
    call = InFlightPtr(::new (block) InFlight{this, from_node, to_node, to_pid,
                                              std::move(invocation),
                                              std::move(on_reply),
                                              /*sessions=*/nullptr});
  } catch (...) {
    common::PoolFree<sizeof(InFlight)>(block);
    if (auto* tr = instrument::Spans()) {
      tr->PopScope();
      tr->EndSpan(send_span, "outcome", "marshal-failed");
    }
    throw;
  }
  call->send_span = send_span;
  network_.Send(
      from_node, to_node, wire_bytes,
      [this, call = std::move(call)]() mutable {
        auto it = endpoints_.find({call->to_node, call->to_pid});
        if (it == endpoints_.end()) {
          // Dead process: the invocation vanishes; caller's timeout fires.
          DCDO_LOG(kDebug) << "rpc: no endpoint at node " << call->to_node
                           << "/pid " << call->to_pid << " for "
                           << call->invocation.method_name();
          return;
        }
        if (it->second.epoch != call->invocation.expected_epoch) {
          // Same (node, pid) reused by a newer activation: the old-epoch
          // invocation is silently discarded, exactly like a message to a
          // dead address.
          epoch_rejections_.Increment();
          DCDO_LOG(kDebug) << "rpc: epoch mismatch at node " << call->to_node
                           << " for " << call->invocation.method_name();
          return;
        }

        // Exactly-once: past the epoch check, (origin, session, slot, seq)
        // names one logical call at this activation, and the slot table
        // every invocation passes decides before the handler sees anything.
        // Slot state never expires, so a late retry still dedups.
        const std::uint64_t call_id = call->invocation.call_id;
        ServerSessionTable::Decision decision = it->second.sessions->Admit(
            call->from_node, call->invocation.session_id,
            call->invocation.session_slot, call->invocation.session_seq);
        // Both duplicate kinds count as one hit and leave one rpc.dedup
        // marker, chained to the duplicate's own send span.
        auto count_duplicate = [this, send_span = call->send_span,
                                node = call->to_node, call_id]() {
          dedup_hits_.Increment();
          if (auto* tr = instrument::Spans()) {
            tr->Instant("rpc.dedup", {.category = "server",
                                      .parent = send_span,
                                      .node = static_cast<std::uint32_t>(node),
                                      .call_id = call_id});
          }
        };
        switch (decision.disposition) {
          case ServerSessionTable::Disposition::kDropStale:
            // Older seq than the slot's current occupant: provably a ghost
            // of a call the client already abandoned. Its answer can no
            // longer matter, so drop without replying.
            session_stale_drops_.Increment();
            DCDO_LOG(kDebug) << "rpc: stale delivery of call " << call_id
                             << " from node " << call->from_node;
            return;
          case ServerSessionTable::Disposition::kDropInFlight:
            // The original attempt is still executing (the handler parked
            // its reply); its answer will reach the client. Dropping the
            // duplicate here is what makes the method body run once.
            count_duplicate();
            DCDO_LOG(kDebug) << "rpc: duplicate of in-flight call " << call_id
                             << " from node " << call->from_node;
            return;
          case ServerSessionTable::Disposition::kReplayReply: {
            // Executed before — replay the slot's cached reply without
            // re-running the body. Charge the dispatch cost (the server did
            // look the call up) and ship the copy back.
            count_duplicate();
            network_.simulation().AdvanceInline(cost_model().rpc_dispatch);
            MethodResult replay = *decision.reply;
            const sim::NodeId to_node = call->to_node;
            const sim::NodeId from_node = call->from_node;
            std::size_t reply_bytes = replay.WireSize();
            network_.Send(to_node, from_node, reply_bytes,
                          [call = std::move(call),
                           replay = std::move(replay)]() mutable {
                            call->on_reply(std::move(replay));
                          });
            return;
          }
          case ServerSessionTable::Disposition::kExecute:
            // New seq on this slot: run the body; the reply functor below
            // records the answer in the slot via Complete.
            call->sessions = it->second.sessions;
            break;
        }

        invocations_delivered_.Increment();
        network_.simulation().AdvanceInline(cost_model().rpc_dispatch);
        std::uint64_t dispatch_span = 0;
        auto* tr = instrument::Spans();
        if (tr != nullptr) {
          dispatch_span = tr->BeginSpan(
              "rpc.dispatch",
              {.category = "server",
               .parent = call->send_span,
               .node = static_cast<std::uint32_t>(call->to_node),
               .call_id = call_id},
              {{"method", call->invocation.method_name()}});
          call->dispatch_span = dispatch_span;
          // Handler-internal spans (dfm.call, nested outcalls) nest here.
          tr->PushScope(dispatch_span);
        }
        // Hand the handler a reference into the block and move the block
        // itself into the reply functor; the reference stays valid for as
        // long as the handler keeps the functor alive (the documented
        // contract), and the reply travels back over the network to the
        // caller when the handler fires it.
        const MethodInvocation& invocation = call->invocation;
        ReplyFn wire_reply = [call =
                                  std::move(call)](MethodResult result) mutable {
          // Record the outcome for replay — even if the reply message is
          // about to be lost on the wire, the *execution* happened, and a
          // retry must get this answer instead of a second execution.
          // Complete itself guards against the slot having moved on to a
          // successor call.
          call->sessions->Complete(call->from_node, call->invocation.session_id,
                                   call->invocation.session_slot,
                                   call->invocation.session_seq, result);
          if (auto* tr2 = instrument::Spans()) {
            tr2->EndSpan(call->dispatch_span, "status",
                         result.status.ok() ? "ok" : result.status.ToString());
          }
          RpcTransport* transport = call->transport;
          const sim::NodeId to_node = call->to_node;
          const sim::NodeId from_node = call->from_node;
          std::size_t reply_bytes = result.WireSize();
          transport->network_.Send(
              to_node, from_node, reply_bytes,
              [call = std::move(call), result = std::move(result)]() mutable {
                call->on_reply(std::move(result));
              });
        };
        it->second.handler(invocation, std::move(wire_reply));
        if (tr != nullptr) tr->PopScope();
      });
  if (auto* tr = instrument::Spans()) {
    tr->PopScope();
    tr->EndSpan(send_span);
  }
}

}  // namespace dcdo::rpc
