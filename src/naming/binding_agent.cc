#include "naming/binding_agent.h"

#include <algorithm>
#include <utility>

#include "trace/trace_context.h"

namespace dcdo {

Status BindingAgent::Configure(const DirectoryConfig& config,
                               sim::Simulation* simulation,
                               sim::SimNetwork* network,
                               std::vector<sim::NodeId> shard_nodes) {
  if (config.shard_count < 1) {
    return InvalidArgumentError("directory shard count must be at least 1");
  }
  if (config.ring_points_per_shard < 1) {
    return InvalidArgumentError("ring points per shard must be at least 1");
  }
  const bool needs_substrate =
      config.lease_duration > sim::SimDuration::Zero() ||
      config.lookup_service > sim::SimDuration::Zero();
  if (needs_substrate && (simulation == nullptr || network == nullptr)) {
    return InvalidArgumentError(
        "leases / modelled lookups need a simulation and a network");
  }
  if (needs_substrate &&
      shard_nodes.size() != static_cast<std::size_t>(config.shard_count)) {
    return InvalidArgumentError(
        "expected one sim host per shard (shard_nodes size mismatch)");
  }
  if (size() != 0 || !holders_.empty()) {
    return FailedPreconditionError(
        "the directory must be empty when reconfigured (no live resharding)");
  }
  config_ = config;
  simulation_ = simulation;
  network_ = network;
  map_.Build(config.shard_count, config.ring_points_per_shard);
  shards_ = std::vector<Shard>(static_cast<std::size_t>(config.shard_count));
  for (std::size_t i = 0; i < shard_nodes.size(); ++i) {
    shards_[i].node = shard_nodes[i];
  }
  return Status::Ok();
}

void BindingAgent::Bind(const ObjectId& id, const ObjectAddress& address) {
  Shard& shard = ShardRef(id);
  auto [it, inserted] = shard.bindings.insert_or_assign(id, address);
  if (!inserted) {
    // A rebind (migration, evolution): current leaseholders are told the
    // fresh address instead of probing the dead one into their timeouts.
    PushToHolders(shard, id, &address);
  }
}

void BindingAgent::Unbind(const ObjectId& id) {
  Shard& shard = ShardRef(id);
  if (shard.bindings.erase(id) == 0) return;
  PushToHolders(shard, id, nullptr);
}

Result<ObjectAddress> BindingAgent::Lookup(const ObjectId& id) const {
  const Shard& shard = ShardRef(id);
  shard.lookups_served.Increment();
  lookups_served_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("naming.lookups_served").Increment());
  auto it = shard.bindings.find(id);
  if (it == shard.bindings.end()) {
    return NotFoundError("no binding for object " + id.ToString());
  }
  return it->second;
}

Result<ObjectAddress> BindingAgent::LookupWithLease(const ObjectId& id,
                                                    std::uint64_t holder,
                                                    sim::SimTime* expiry) {
  Shard& shard = ShardRef(id);
  shard.lookups_served.Increment();
  lookups_served_.Increment();
  DCDO_TRACE_HOOK(metrics().GetCounter("naming.lookups_served").Increment());
  auto it = shard.bindings.find(id);
  if (it == shard.bindings.end()) {
    return NotFoundError("no binding for object " + id.ToString());
  }
  if (leases_enabled() && holder != 0) {
    sim::SimTime now = simulation_->Now();
    *expiry = now + config_.lease_duration;
    shard.leases.Grant(id, holder, now, *expiry);
    leases_granted_.Increment();
    DCDO_TRACE_HOOK(metrics().GetCounter("naming.leases_granted").Increment());
  }
  return it->second;
}

void BindingAgent::AsyncLookup(const ObjectId& id, std::uint64_t holder,
                               LookupCallback done) {
  if (!lookup_service_modeled()) {
    // Unmodelled service: resolve immediately, exactly like the sync paths.
    sim::SimTime expiry{};
    Result<ObjectAddress> result =
        holder != 0 ? LookupWithLease(id, holder, &expiry) : Lookup(id);
    done(std::move(result), expiry);
    return;
  }
  Shard& shard = ShardRef(id);
  sim::SimTime now = simulation_->Now();
  sim::SimTime start = std::max(now, shard.busy_until);
  sim::SimTime complete = start + config_.lookup_service;
  shard.busy_until = complete;
  simulation_->Schedule(
      complete - now,
      [this, id, holder, issued = now, done = std::move(done)]() mutable {
        sim::SimTime expiry{};
        Result<ObjectAddress> result =
            holder != 0 ? LookupWithLease(id, holder, &expiry) : Lookup(id);
        DCDO_TRACE_HOOK(metrics()
                            .GetHistogram("naming.lookup_latency")
                            .Record(simulation_->Now() - issued));
        done(std::move(result), expiry);
      });
}

std::uint64_t BindingAgent::RegisterHolder(sim::NodeId node,
                                           InvalidationSink* sink) {
  std::uint64_t holder = next_holder_++;
  holders_.emplace(holder, HolderRecord{node, sink});
  return holder;
}

void BindingAgent::UnregisterHolder(std::uint64_t holder) {
  holders_.erase(holder);
  for (Shard& shard : shards_) shard.leases.DropHolder(holder);
}

std::size_t BindingAgent::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.bindings.size();
  return total;
}

std::size_t BindingAgent::live_leases() const {
  if (simulation_ == nullptr) return 0;
  sim::SimTime now = simulation_->Now();
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.leases.LiveCount(now);
  return total;
}

void BindingAgent::PushToHolders(Shard& shard, const ObjectId& id,
                                 const ObjectAddress* fresh) {
  if (!leases_enabled()) return;
  sim::SimTime now = simulation_->Now();
  // Ordered by holder id (LeaseTable keeps holder sets in std::map), so the
  // push fan-out hits the shard NIC in a deterministic order.
  std::vector<std::uint64_t> live = shard.leases.LiveHolders(id, now);
  if (fresh == nullptr) {
    // The binding died: consume the leases. Holders that miss the notice
    // (partitioned, message lost) stop trusting the entry at expiry anyway.
    shard.leases.Drop(id);
  }
  if (live.empty()) return;
  sim::SimTime lease_expiry = now + config_.lease_duration;
  bool has_fresh = fresh != nullptr;
  ObjectAddress address = has_fresh ? *fresh : ObjectAddress::Invalid();
  for (std::uint64_t holder : live) {
    auto it = holders_.find(holder);
    if (it == holders_.end()) continue;  // cache destroyed; lease is moot
    if (has_fresh) {
      // The push renews the lease alongside the fresh binding, so a holder
      // keeps exactly one live lease per entry it trusts.
      shard.leases.Grant(id, holder, now, lease_expiry);
    }
    invalidations_sent_.Increment();
    DCDO_TRACE_HOOK(
        metrics().GetCounter("naming.invalidations_sent").Increment());
    // Send() enforces reachability: a partitioned or down holder silently
    // loses the notice, which is precisely the lost-invalidation case lease
    // expiry exists to cover.
    network_->Send(shard.node, it->second.node, config_.invalidation_bytes,
                   [this, holder, id, address, has_fresh, lease_expiry]() {
                     DeliverInvalidation(holder, id, address, has_fresh,
                                         lease_expiry);
                   });
  }
}

void BindingAgent::DeliverInvalidation(std::uint64_t holder,
                                       const ObjectId& id,
                                       const ObjectAddress& address,
                                       bool has_fresh,
                                       sim::SimTime lease_expiry) {
  auto it = holders_.find(holder);
  if (it == holders_.end()) return;  // holder died while the notice flew
  invalidations_delivered_.Increment();
  DCDO_TRACE_HOOK(
      metrics().GetCounter("naming.invalidations_delivered").Increment());
  it->second.sink->OnBindingInvalidated(id, has_fresh ? &address : nullptr,
                                        lease_expiry);
}

}  // namespace dcdo
