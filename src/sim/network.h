// SimNetwork: a switched-Ethernet model connecting simulated hosts.
//
// Two traffic classes, matching how Legion moves data:
//   * Send():         small control messages (method invocations, replies) —
//                     latency + serialization, with per-NIC queueing.
//   * BulkTransfer(): implementation/component/state downloads — session
//                     setup + goodput-limited streaming (CostModel).
//
// Failure injection: nodes can be marked down and node pairs partitioned.
// A control message to an unreachable destination is silently dropped (the
// sender's RPC timeout, not the network, reports the failure — as on a real
// LAN); bulk and stream transfers report the drop to their callback.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "instrument/metrics.h"
#include "sim/cost_model.h"
#include "sim/simulation.h"

namespace dcdo::sim {

using NodeId = std::uint32_t;

class SimNetwork {
 public:
  // Move-only. Kept small: delivery closures that carry marshaled
  // invocations heap-allocate once and relocate by pointer; what matters is
  // that a Delivery plus the per-event wrapper capture (this + route) fits
  // the Simulation::Callback buffer, so forwarding a delivery through the
  // event loop allocates nothing.
  using Delivery = common::MoveFunction<void(), 32>;

  SimNetwork(Simulation* simulation, CostModel cost_model)
      : simulation_(*simulation), cost_(cost_model) {}

  const CostModel& cost_model() const { return cost_; }
  Simulation& simulation() { return simulation_; }

  // Registers a node; nodes start up.
  void AddNode(NodeId node);
  bool HasNode(NodeId node) const { return nodes_.contains(node); }

  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  // Cuts (or heals) the link between two nodes; direction-symmetric.
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  bool Reachable(NodeId from, NodeId to) const;

  // Delivers a control message of `bytes` from -> to, then runs `on_delivery`
  // at the destination's sim time. Dropped (never delivered) if unreachable
  // at send time or at delivery time. Messages on the same sender NIC
  // serialize behind each other; a loopback message skips the NIC.
  void Send(NodeId from, NodeId to, std::size_t bytes, Delivery on_delivery);

  // `on_done(delivered)` — unlike Delivery, bulk and stream completions also
  // report failure (unreachable at start, dropped in flight) so callers can
  // surface the exact failed transfer instead of hanging on a silent drop.
  // A transfer refused at start reports through the event loop, never from
  // inside the call.
  using StreamDone = common::MoveFunction<void(bool), 32>;

  // Streams `bytes` from -> to through the bulk (file-object) path; `on_done`
  // runs when the last byte lands.
  void BulkTransfer(NodeId from, NodeId to, std::size_t bytes,
                    StreamDone on_done);

  // Bulk stream with link-aware fair sharing: after a fixed `setup` phase,
  // `bytes` flow from -> to at a rate recomputed whenever a stream touching
  // either endpoint's NIC starts or finishes — concurrent streams split
  // `wire_bandwidth_bytes_per_sec` evenly per NIC (a flow gets the wire rate
  // divided by the busier of its two endpoints), and each stream is further
  // capped at `peak_bytes_per_sec` (the transfer protocol's efficiency
  // ceiling). Delivery lands `setup + stream + network_latency` after the
  // call when the stream runs alone. Loopback (from == to) skips the NIC
  // entirely: the whole transfer is the fixed `setup` (callers pass the
  // disk-copy time).
  //
  // Determinism: re-shares are recomputed in flow-id (start) order at the
  // instants flows start or finish, from integer-nanosecond inputs — two
  // runs of one scenario produce identical completion times. A re-share is
  // per NIC: a stream that starts or finishes visits only the streaming
  // flows on its own two endpoints, the only shares its membership moves.
  //
  // An empty stream (`bytes` == 0) between two nodes has nothing to share
  // the wire with: it lands `setup + network_latency` after the call and
  // never joins a NIC's share.
  //
  // The stream's `net.stream` span nests under `requester` (the span of the
  // operation that asked for the bytes), or under the innermost open scope
  // when it is 0.
  void StreamTransfer(NodeId from, NodeId to, std::size_t bytes,
                      SimDuration setup, double peak_bytes_per_sec,
                      StreamDone on_done, std::uint64_t requester = 0);

  // Streams currently in their shared (post-setup) phase; tests use this to
  // prove the acquisition pipeline's concurrency bound.
  std::size_t active_streams() const { return streaming_count_; }

  // Counters (per run; benches report message counts, the checking layer's
  // message-conservation invariant requires
  //   sent == delivered + dropped-in-flight + in-flight
  // at all times, and in-flight == 0 once the simulator is idle).
  std::uint64_t messages_sent() const { return messages_sent_.value(); }
  std::uint64_t messages_delivered() const {
    return messages_delivered_.value();
  }
  std::uint64_t messages_dropped() const { return messages_dropped_.value(); }
  std::uint64_t messages_dropped_in_flight() const {
    return messages_dropped_in_flight_.value();
  }
  std::uint64_t messages_in_flight() const {
    return messages_in_flight_.value();
  }
  std::uint64_t bytes_sent() const { return bytes_sent_.value(); }

 private:
  // One fair-shared bulk stream (StreamTransfer). `remaining`/`rate` are
  // doubles because shares are fractional; progress is settled against the
  // integer sim clock at every re-share, so drift cannot accumulate between
  // membership changes.
  struct StreamFlow {
    std::uint64_t id = 0;  // start order: the key of stream_flows_
    NodeId from = 0;
    NodeId to = 0;
    double remaining = 0.0;  // bytes left in the stream phase
    double rate = 0.0;       // current bytes/sec; 0 while in setup
    double peak = 0.0;       // efficiency ceiling, bytes/sec
    SimTime last_update;
    std::uint64_t event = 0;  // pending completion event (post-setup)
    StreamDone on_done;
    std::uint64_t span = 0;
  };

  // The one prologue of every transfer: refuses it (counted dropped, never
  // sent) if `to` is unreachable, else counts it sent and in flight and
  // returns its `span_name` span (0 with tracing off), a child of
  // `requester` when that is not 0.
  std::optional<std::uint64_t> Admit(NodeId from, NodeId to,
                                     std::size_t bytes, const char* span_name,
                                     std::uint64_t requester = 0);
  // Answers a transfer Admit refused with on_done(false), deferred through
  // the event loop so the failure never re-enters the caller mid-call.
  void Refuse(StreamDone on_done);
  // The one delivery epilogue: takes the transfer out of flight, re-checks
  // reachability (a partition or a down host that formed in flight loses
  // the payload), counts it delivered or dropped in flight, closes its span
  // and returns whether the payload landed.
  bool Land(NodeId from, NodeId to, std::uint64_t span);

  // Stream-phase machinery: move a flow out of setup into the shared phase,
  // re-derive the fair share of every streaming flow on `node`'s NIC, and
  // settle/deliver a finished flow.
  void StartStreamPhase(std::uint64_t flow_id);
  void ReshareStreams(NodeId node);
  void UpdateFlowRate(StreamFlow& flow);
  void FinishStream(std::uint64_t flow_id);

  Simulation& simulation_;
  CostModel cost_;
  std::set<NodeId> nodes_;
  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> partitions_;  // normalized (min,max)
  std::unordered_map<NodeId, SimTime> nic_busy_until_;
  // Every open stream, setup phase included, by flow id. Map nodes never
  // move, so the per-NIC lists below point into it.
  std::map<std::uint64_t, StreamFlow> stream_flows_;
  // Per NIC, indexed by NodeId (AddNode sizes it; node ids are small host
  // numbers): the streaming flows with an endpoint there, in ascending flow
  // id, so a re-share visits them in start order. A list's size is the
  // count its NIC's fair share divides by.
  std::vector<std::vector<StreamFlow*>> nic_streams_;
  std::uint64_t next_stream_id_ = 1;
  std::size_t streaming_count_ = 0;
  trace::Counter messages_sent_;
  trace::Counter messages_delivered_;
  trace::Counter messages_dropped_;  // refused at start or lost in flight
  trace::Counter messages_dropped_in_flight_;  // lost after acceptance
  trace::Counter messages_in_flight_;
  trace::Counter bytes_sent_;
};

}  // namespace dcdo::sim
