#include "naming/binding_agent.h"

#include <vector>


namespace dcdo {

Status BindingAgent::Attach(sim::SimNetwork* network, sim::NodeId node) {
  if (!bindings_.empty() || !holders_.empty()) {
    return FailedPreconditionError(
        "the directory must be empty when the agent attaches");
  }
  network_ = network;
  node_ = node;
  return Status::Ok();
}

void BindingAgent::Bind(const ObjectId& id, const ObjectAddress& address) {
  auto [it, inserted] = bindings_.insert_or_assign(id, address);
  if (!inserted) {
    // A rebind (migration, evolution): current leaseholders are told the
    // fresh address instead of probing the dead one into their timeouts.
    PushToHolders(id, &address);
  }
}

void BindingAgent::Unbind(const ObjectId& id) {
  if (bindings_.erase(id) == 0) return;
  PushToHolders(id, nullptr);
}

Result<ObjectAddress> BindingAgent::Lookup(const ObjectId& id) const {
  lookups_served_.Increment();
  auto it = bindings_.find(id);
  if (it == bindings_.end()) {
    return NotFoundError("no binding for object " + id.ToString());
  }
  return it->second;
}

Result<ObjectAddress> BindingAgent::LookupWithLease(const ObjectId& id,
                                                    std::uint64_t holder,
                                                    sim::SimTime* expiry) {
  DCDO_ASSIGN_OR_RETURN(ObjectAddress address, Lookup(id));
  if (leases_enabled() && holder != 0) {
    sim::SimTime now = network_->simulation().Now();
    *expiry = now + network_->cost_model().binding_lease_duration;
    leases_.Grant(id, holder, now, *expiry);
    leases_granted_.Increment();
  }
  return address;
}

std::uint64_t BindingAgent::RegisterHolder(sim::NodeId node,
                                           InvalidationSink* sink) {
  std::uint64_t holder = next_holder_++;
  holders_.emplace(holder, HolderRecord{node, sink});
  return holder;
}

void BindingAgent::UnregisterHolder(std::uint64_t holder) {
  holders_.erase(holder);
  leases_.DropHolder(holder);
}

std::size_t BindingAgent::live_leases() const {
  if (network_ == nullptr) return 0;
  return leases_.LiveCount(network_->simulation().Now());
}

void BindingAgent::PushToHolders(const ObjectId& id,
                                 const ObjectAddress* fresh) {
  if (!leases_enabled()) return;
  const sim::CostModel& cost = network_->cost_model();
  sim::SimTime now = network_->simulation().Now();
  // Ordered by holder id (LeaseTable keeps holder sets in std::map), so the
  // push fan-out hits the agent's NIC in a deterministic order.
  std::vector<std::uint64_t> live = leases_.LiveHolders(id, now);
  if (fresh == nullptr) {
    // The binding died: consume the leases. Holders that miss the notice
    // (partitioned, message lost) stop trusting the entry at expiry anyway.
    leases_.Drop(id);
  }
  if (live.empty()) return;
  sim::SimTime lease_expiry = now + cost.binding_lease_duration;
  bool has_fresh = fresh != nullptr;
  ObjectAddress address = has_fresh ? *fresh : ObjectAddress::Invalid();
  for (std::uint64_t holder : live) {
    auto it = holders_.find(holder);
    if (it == holders_.end()) continue;  // cache destroyed; lease is moot
    if (has_fresh) {
      // The push renews the lease alongside the fresh binding, so a holder
      // keeps exactly one live lease per entry it trusts.
      leases_.Grant(id, holder, now, lease_expiry);
    }
    invalidations_sent_.Increment();
    // Send() enforces reachability: a partitioned or down holder silently
    // loses the notice, which is precisely the lost-invalidation case lease
    // expiry exists to cover.
    network_->Send(node_, it->second.node, cost.invalidation_bytes,
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
  it->second.sink->OnBindingInvalidated(id, has_fresh ? &address : nullptr,
                                        lease_expiry);
}

}  // namespace dcdo
