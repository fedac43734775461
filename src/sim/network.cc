#include "sim/network.h"

#include <algorithm>
#include <optional>
#include <string>

#include "common/logging.h"
#include "instrument/context.h"

namespace dcdo::sim {
namespace {
std::pair<NodeId, NodeId> Normalize(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
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

std::optional<std::uint64_t> SimNetwork::Admit(NodeId from, NodeId to,
                                               std::size_t bytes,
                                               const char* span_name,
                                               std::uint64_t requester) {
  trace::SpanRecorder* tr = instrument::Spans();
  if (!Reachable(from, to)) {
    messages_dropped_.Increment();
    if (tr != nullptr) {
      tr->Instant("net.drop", {.category = "net", .node = from});
    }
    DCDO_LOG(kDebug) << "net: dropped " << bytes << "B " << from << "->" << to;
    return std::nullopt;
  }
  messages_sent_.Increment();
  messages_in_flight_.Increment();
  bytes_sent_.Increment(bytes);
  // The span covers wire time: opened here, so it nests under the
  // requester or the transport's rpc.send scope, and closed by Land (0
  // with tracing off).
  if (tr == nullptr) return 0;
  return tr->BeginSpan(
      span_name,
      {.category = "net",
       .parent = requester != 0 ? requester : trace::kScopeParent,
       .node = from},
      {{"bytes", std::to_string(bytes)}});
}

void SimNetwork::Refuse(StreamDone on_done) {
  simulation_.Schedule(SimDuration::Zero(),
                       [fn = std::move(on_done)]() mutable { fn(false); });
}

bool SimNetwork::Land(NodeId from, NodeId to, std::uint64_t span) {
  messages_in_flight_.Decrement();
  const bool delivered = Reachable(from, to);
  if (delivered) {
    messages_delivered_.Increment();
  } else {
    messages_dropped_.Increment();
    messages_dropped_in_flight_.Increment();
  }
  trace::SpanRecorder* tr = span != 0 ? instrument::Spans() : nullptr;
  if (tr != nullptr) {
    if (delivered) {
      tr->EndSpan(span);
    } else {
      tr->EndSpan(span, "outcome", "dropped-in-flight");
    }
  }
  return delivered;
}

void SimNetwork::Send(NodeId from, NodeId to, std::size_t bytes,
                      Delivery on_delivery) {
  std::optional<std::uint64_t> span = Admit(from, to, bytes, "net.xfer");
  if (!span) return;
  SimTime arrival;
  if (from == to) {
    // Loopback: no NIC serialization, negligible latency.
    arrival = simulation_.Now() + SimDuration::Micros(5);
  } else {
    // NIC serialization: back-to-back sends from one node queue behind each
    // other at wire speed.
    SimTime& busy_until = nic_busy_until_[from];
    SimDuration wire = SimDuration::Seconds(
        static_cast<double>(bytes) / cost_.wire_bandwidth_bytes_per_sec);
    busy_until = std::max(simulation_.Now(), busy_until) + wire;
    arrival = busy_until + cost_.network_latency;
  }
  simulation_.ScheduleAt(
      arrival, [this, from, to, span = *span,
                fn = std::move(on_delivery)]() mutable {
        if (Land(from, to, span)) fn();
      });
}

void SimNetwork::BulkTransfer(NodeId from, NodeId to, std::size_t bytes,
                              StreamDone on_done) {
  std::optional<std::uint64_t> span = Admit(from, to, bytes, "net.bulk");
  if (!span) {
    Refuse(std::move(on_done));
    return;
  }
  SimDuration duration = (from == to) ? cost_.DiskRead(bytes)  // local copy
                                      : cost_.DownloadTime(bytes);
  simulation_.Schedule(duration, [this, from, to, span = *span,
                                  fn = std::move(on_done)]() mutable {
    fn(Land(from, to, span));
  });
}

void SimNetwork::StreamTransfer(NodeId from, NodeId to, std::size_t bytes,
                                SimDuration setup, double peak_bytes_per_sec,
                                StreamDone on_done, std::uint64_t requester) {
  std::optional<std::uint64_t> span =
      Admit(from, to, bytes, "net.stream", requester);
  if (!span) {
    Refuse(std::move(on_done));
    return;
  }
  const bool empty = bytes == 0 && from != to;
  if (from == to || peak_bytes_per_sec <= 0 || empty) {
    // Loopback (or a degenerate rate): the whole transfer is the fixed setup
    // duration — no NIC, nothing to share. An empty stream between two
    // nodes also crosses the wire's latency, but never takes a share: with
    // no byte left to stream, a share would never arm its completion.
    simulation_.Schedule(empty ? setup + cost_.network_latency : setup,
                         [this, from, to, span = *span,
                          fn = std::move(on_done)]() mutable {
                           fn(Land(from, to, span));
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
  flow.span = *span;
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
    if (auto* tr = instrument::Spans()) {
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
  on_done(Land(from, to, span));
}

}  // namespace dcdo::sim
