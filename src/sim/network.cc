#include "sim/network.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "trace/trace_context.h"

namespace dcdo::sim {
namespace {
std::pair<NodeId, NodeId> Normalize(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

// A net.xfer / net.batch / net.bulk span covering wire time. Opened at send
// (so it nests under the transport's rpc.send scope), closed at delivery.
// Returns 0 with tracing off — every downstream use tolerates a zero id.
std::uint64_t BeginTransferSpan(const char* name, NodeId from,
                                std::size_t bytes) {
  auto* tr = trace::ActiveContext();
  if (tr == nullptr) return 0;
  std::uint64_t span =
      tr->BeginSpan(name, {.category = "net", .node = from});
  tr->Annotate(span, "bytes", std::to_string(bytes));
  return span;
}

void EndTransferSpan(std::uint64_t span, bool delivered) {
  if (span == 0) return;
  auto* tr = trace::ActiveContext();
  if (tr == nullptr) return;
  if (delivered) {
    tr->EndSpan(span);
  } else {
    tr->EndSpan(span, "outcome", "dropped-in-flight");
    tr->metrics().GetCounter("net.drops").Increment();
  }
}

void TraceSendDrop(NodeId from, NodeId to) {
  auto* tr = trace::ActiveContext();
  if (tr == nullptr) return;
  tr->Instant("net.drop", {.category = "net", .node = from});
  tr->metrics().GetCounter("net.drops").Increment();
  (void)to;
}
}  // namespace

void SimNetwork::AddNode(NodeId node) {
  nodes_.insert(node);
  if (node >= nic_streams_.size()) nic_streams_.resize(node + std::size_t{1});
}

void SimNetwork::SetNodeUp(NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
}

bool SimNetwork::NodeUp(NodeId node) const {
  return nodes_.contains(node) && !down_.contains(node);
}

void SimNetwork::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  if (partitioned) {
    partitions_.insert(Normalize(a, b));
  } else {
    partitions_.erase(Normalize(a, b));
  }
}

bool SimNetwork::Reachable(NodeId from, NodeId to) const {
  if (from == to) return NodeUp(from);  // no link to partition
  if (!NodeUp(from) || !NodeUp(to)) return false;
  return !partitions_.contains(Normalize(from, to));
}

void SimNetwork::Send(NodeId from, NodeId to, std::size_t bytes,
                      Delivery on_delivery) {
  if (!Reachable(from, to)) {
    messages_dropped_.Increment();
    TraceSendDrop(from, to);
    DCDO_LOG(kDebug) << "net: dropped " << bytes << "B " << from << "->" << to;
    return;
  }
  messages_sent_.Increment();
  messages_in_flight_.Increment();
  bytes_sent_.Increment(bytes);
  if (cost_.send_batch_window > SimDuration::Zero()) {
    auto [it, opened] = pending_batches_.try_emplace({from, to});
    PendingBatch& batch = it->second;
    if (opened) {
      batch.id = next_batch_id_++;
      simulation_.Schedule(cost_.send_batch_window,
                           [this, from, to, batch_id = batch.id]() {
                             FlushBatch(from, to, batch_id);
                           });
    } else {
      messages_coalesced_.Increment();
    }
    batch.bytes += bytes;
    batch.deliveries.push_back(std::move(on_delivery));
    if (batch.bytes >= cost_.send_batch_max_bytes) {
      FlushBatch(from, to, batch.id);  // the armed window flush will no-op
    }
    return;
  }
  std::uint64_t span = BeginTransferSpan("net.xfer", from, bytes);
  if (from == to) {
    // Loopback: no NIC serialization, negligible latency.
    simulation_.Schedule(SimDuration::Micros(5),
                         [this, span, fn = std::move(on_delivery)]() mutable {
                           messages_in_flight_.Decrement();
                           messages_delivered_.Increment();
                           EndTransferSpan(span, /*delivered=*/true);
                           fn();
                         });
    return;
  }
  // NIC serialization: back-to-back sends from one node queue behind each
  // other at wire speed.
  SimTime now = simulation_.Now();
  SimTime& busy_until = nic_busy_until_[from];
  SimTime start = std::max(now, busy_until);
  SimDuration wire = SimDuration::Seconds(
      static_cast<double>(bytes) / cost_.wire_bandwidth_bytes_per_sec);
  busy_until = start + wire;
  SimTime delivered = busy_until + cost_.network_latency;
  // Re-check reachability at delivery time: a partition that forms while the
  // message is in flight loses the message.
  simulation_.ScheduleAt(
      delivered,
      [this, from, to, span, fn = std::move(on_delivery)]() mutable {
        messages_in_flight_.Decrement();
        if (!Reachable(from, to)) {
          messages_dropped_.Increment();
          messages_dropped_in_flight_.Increment();
          EndTransferSpan(span, /*delivered=*/false);
          return;
        }
        messages_delivered_.Increment();
        EndTransferSpan(span, /*delivered=*/true);
        fn();
      });
}

void SimNetwork::FlushBatch(NodeId from, NodeId to, std::uint64_t batch_id) {
  auto it = pending_batches_.find({from, to});
  // A byte-cap flush may have shipped this batch already (and a successor
  // may have opened since); the stale window event must not touch it.
  if (it == pending_batches_.end() || it->second.id != batch_id) return;
  PendingBatch batch = std::move(it->second);
  pending_batches_.erase(it);
  DispatchBatch(from, to, batch.bytes, std::move(batch.deliveries));
}

void SimNetwork::DispatchBatch(NodeId from, NodeId to, std::size_t bytes,
                               std::vector<Delivery> deliveries) {
  batches_sent_.Increment();
  std::uint64_t span = BeginTransferSpan("net.batch", from, bytes);
  SimTime arrival;
  if (from == to) {
    arrival = simulation_.Now() + SimDuration::Micros(5);
  } else {
    SimTime now = simulation_.Now();
    SimTime& busy_until = nic_busy_until_[from];
    SimTime start = std::max(now, busy_until);
    SimDuration wire = SimDuration::Seconds(
        static_cast<double>(bytes) / cost_.wire_bandwidth_bytes_per_sec);
    busy_until = start + wire;
    arrival = busy_until + cost_.network_latency;
  }
  simulation_.ScheduleAt(
      arrival, [this, from, to, span, fns = std::move(deliveries)]() mutable {
        messages_in_flight_.Decrement(fns.size());
        if (!Reachable(from, to)) {
          messages_dropped_.Increment(fns.size());
          messages_dropped_in_flight_.Increment(fns.size());
          EndTransferSpan(span, /*delivered=*/false);
          return;
        }
        messages_delivered_.Increment(fns.size());
        EndTransferSpan(span, /*delivered=*/true);
        for (Delivery& fn : fns) fn();
      });
}

void SimNetwork::BulkTransfer(NodeId from, NodeId to, std::size_t bytes,
                              Delivery on_done) {
  if (!Reachable(from, to)) {
    messages_dropped_.Increment();
    TraceSendDrop(from, to);
    return;
  }
  // Same accounting as Send(): bulk transfers are messages too, and the
  // message-conservation invariant (sent == delivered + dropped-in-flight +
  // in-flight) must hold across both traffic classes.
  messages_sent_.Increment();
  messages_in_flight_.Increment();
  bytes_sent_.Increment(bytes);
  std::uint64_t span = BeginTransferSpan("net.bulk", from, bytes);
  SimDuration duration = (from == to) ? cost_.DiskRead(bytes)  // local copy
                                      : cost_.DownloadTime(bytes);
  simulation_.Schedule(
      duration, [this, from, to, span, fn = std::move(on_done)]() mutable {
        messages_in_flight_.Decrement();
        if (!Reachable(from, to)) {
          messages_dropped_.Increment();
          messages_dropped_in_flight_.Increment();
          EndTransferSpan(span, /*delivered=*/false);
          return;
        }
        messages_delivered_.Increment();
        EndTransferSpan(span, /*delivered=*/true);
        fn();
      });
}

void SimNetwork::StreamTransfer(NodeId from, NodeId to, std::size_t bytes,
                                SimDuration setup, double peak_bytes_per_sec,
                                StreamDone on_done) {
  if (!Reachable(from, to)) {
    messages_dropped_.Increment();
    TraceSendDrop(from, to);
    // Unlike the fire-and-forget transfer paths, a stream caller is owed an
    // answer either way; defer through the event loop so the failure never
    // re-enters the caller mid-call.
    simulation_.Schedule(SimDuration::Zero(),
                         [fn = std::move(on_done)]() mutable { fn(false); });
    return;
  }
  messages_sent_.Increment();
  messages_in_flight_.Increment();
  bytes_sent_.Increment(bytes);
  std::uint64_t span = BeginTransferSpan("net.stream", from, bytes);
  const bool empty = bytes == 0 && from != to;
  if (from == to || peak_bytes_per_sec <= 0 || empty) {
    // Loopback (or a degenerate rate): the whole transfer is the fixed setup
    // duration — no NIC, nothing to share. An empty stream between two
    // nodes also crosses the wire's latency, but never takes a share: with
    // no byte left to stream, a share would never arm its completion.
    simulation_.Schedule(
        empty ? setup + cost_.network_latency : setup,
        [this, from, to, span, fn = std::move(on_done)]() mutable {
          messages_in_flight_.Decrement();
          if (!Reachable(from, to)) {
            messages_dropped_.Increment();
            messages_dropped_in_flight_.Increment();
            EndTransferSpan(span, /*delivered=*/false);
            fn(false);
            return;
          }
          messages_delivered_.Increment();
          EndTransferSpan(span, /*delivered=*/true);
          fn(true);
        });
    return;
  }
  std::uint64_t flow_id = next_stream_id_++;
  StreamFlow& flow = stream_flows_[flow_id];
  flow.id = flow_id;
  flow.from = from;
  flow.to = to;
  flow.remaining = static_cast<double>(bytes);
  flow.peak = peak_bytes_per_sec;
  flow.on_done = std::move(on_done);
  flow.span = span;
  flow.event = simulation_.Schedule(
      setup, [this, flow_id]() { StartStreamPhase(flow_id); });
}

void SimNetwork::StartStreamPhase(std::uint64_t flow_id) {
  auto it = stream_flows_.find(flow_id);
  if (it == stream_flows_.end()) return;
  StreamFlow& flow = it->second;
  flow.event = 0;  // the setup event just fired
  flow.last_update = simulation_.Now();
  // Setups differ in length, so a flow may start streaming after a later
  // one did: insert by id to keep each list in start order.
  for (NodeId node : {flow.from, flow.to}) {
    std::vector<StreamFlow*>& nic = nic_streams_[node];
    nic.insert(std::ranges::upper_bound(nic, flow_id, {}, &StreamFlow::id),
               &flow);
  }
  ++streaming_count_;
  // The new membership changes every fair share touching either endpoint —
  // including this flow's own (its rate moves 0 -> share, arming completion).
  ReshareStreams(flow.from);
  ReshareStreams(flow.to);
}

void SimNetwork::ReshareStreams(NodeId node) {
  // Flow-id order == start order: deterministic regardless of event
  // interleaving. Updating a rate reschedules events but leaves the lists.
  for (StreamFlow* flow : nic_streams_[node]) UpdateFlowRate(*flow);
}

void SimNetwork::UpdateFlowRate(StreamFlow& flow) {
  SimTime now = simulation_.Now();
  // Settle progress at the old rate before the share changes, so the rate
  // history integrates exactly no matter how many membership changes the
  // stream lives through.
  double elapsed = (now - flow.last_update).ToSeconds();
  flow.remaining = std::max(0.0, flow.remaining - flow.rate * elapsed);
  flow.last_update = now;
  const std::size_t busiest = std::max(nic_streams_[flow.from].size(),
                                       nic_streams_[flow.to].size());
  double share =
      cost_.wire_bandwidth_bytes_per_sec / static_cast<double>(busiest);
  double new_rate = std::min(flow.peak, share);
  if (new_rate == flow.rate) return;  // unchanged share: event stands
  bool mid_stream = flow.rate > 0;
  flow.rate = new_rate;
  if (flow.remaining <= 0) return;  // already in the latency tail
  if (flow.event != 0) simulation_.Cancel(flow.event);
  flow.event = simulation_.ScheduleAt(
      now + SimDuration::Seconds(flow.remaining / new_rate) +
          cost_.network_latency,
      [this, flow_id = flow.id]() { FinishStream(flow_id); });
  if (mid_stream) {
    if (auto* tr = trace::ActiveContext()) {
      tr->Instant("fetch.share", {.category = "net", .node = flow.from});
    }
  }
}

void SimNetwork::FinishStream(std::uint64_t flow_id) {
  auto it = stream_flows_.find(flow_id);
  if (it == stream_flows_.end()) return;
  NodeId from = it->second.from;
  NodeId to = it->second.to;
  std::uint64_t span = it->second.span;
  StreamDone on_done = std::move(it->second.on_done);
  for (NodeId node : {from, to}) std::erase(nic_streams_[node], &it->second);
  stream_flows_.erase(it);
  --streaming_count_;
  // The freed share speeds up whoever is left on these NICs.
  ReshareStreams(from);
  ReshareStreams(to);
  messages_in_flight_.Decrement();
  // Same delivery-time recheck as every other path: a partition that formed
  // while the stream was in flight loses the payload.
  if (!Reachable(from, to)) {
    messages_dropped_.Increment();
    messages_dropped_in_flight_.Increment();
    EndTransferSpan(span, /*delivered=*/false);
    on_done(false);
    return;
  }
  messages_delivered_.Increment();
  EndTransferSpan(span, /*delivered=*/true);
  on_done(true);
}

}  // namespace dcdo::sim
