// BindingAgent: the authoritative ObjectId -> ObjectAddress directory, with
// lease/invalidation-maintained client caches.
//
// Legion resolves LOIDs to object addresses through binding agents; clients
// cache bindings locally (see BindingCache) and fall back to the agent when a
// cached binding proves stale. By default the agent is one in-memory map with
// free lookups, and caches discover staleness through the rpc layer's
// timeout-probe schedule (25-35 s, the paper's number).
//
// Leases (CostModel::binding_lease_duration > 0, once Attach puts the agent
// on the simulated network): a lease-granting lookup records the calling
// BindingCache as a leaseholder; when the binding changes, the agent pushes
// the fresh binding (or a drop notice) from its node to every live holder,
// so stale-binding discovery is one network hop instead of the probe
// schedule. Lease expiry is the fallback when the push is lost (partition,
// holder down) — a holder never trusts an entry past its lease.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/object_id.h"
#include "common/status.h"
#include "instrument/metrics.h"
#include "naming/address.h"
#include "naming/lease_table.h"
#include "sim/network.h"

namespace dcdo {

// Receives pushed invalidations for bindings the holder has leased.
// Implemented by BindingCache; defined here so the agent does not depend on
// the cache (the cache already depends on the agent).
class InvalidationSink {
 public:
  // `fresh` is the pushed replacement binding (the holder may keep serving
  // it under the renewed lease expiring at `lease_expiry`), or nullptr when
  // the binding died with no forwarding address (the holder must drop it).
  virtual void OnBindingInvalidated(const ObjectId& id,
                                    const ObjectAddress* fresh,
                                    sim::SimTime lease_expiry) = 0;

 protected:
  ~InvalidationSink() = default;
};

class BindingAgent {
 public:
  // Unattached: leases off, no simulation access.
  BindingAgent() = default;

  // Puts the agent on `network` at `node`, the host its invalidation pushes
  // leave from. The lease duration and push size come from
  // network->cost_model(), the clock from network->simulation(). Must be
  // called while the directory is empty (no bindings, no registered
  // holders): a cache registered earlier would never hold a lease.
  [[nodiscard]] Status Attach(sim::SimNetwork* network, sim::NodeId node);

  // Registers or replaces the authoritative binding for `id`. A replacement
  // (rebind after migration/evolution) pushes the fresh binding to every
  // live leaseholder.
  void Bind(const ObjectId& id, const ObjectAddress& address);

  // Removes the binding (object deactivated with no forwarding address) and
  // pushes a drop notice to every live leaseholder.
  void Unbind(const ObjectId& id);

  // Authoritative lookup; kNotFound if the object has no current activation.
  [[nodiscard]] Result<ObjectAddress> Lookup(const ObjectId& id) const;

  // Lease-granting lookup: like Lookup, but additionally records `holder`
  // (a RegisterHolder handle) as a leaseholder and returns the lease expiry
  // through `expiry`. Falls back to a plain lookup when leases are off.
  [[nodiscard]] Result<ObjectAddress> LookupWithLease(const ObjectId& id,
                                                      std::uint64_t holder,
                                                      sim::SimTime* expiry);

  // Leaseholder registry (BindingCache constructor/destructor). The returned
  // handle is never reused; 0 is never a valid handle.
  std::uint64_t RegisterHolder(sim::NodeId node, InvalidationSink* sink);
  void UnregisterHolder(std::uint64_t holder);

  bool Bound(const ObjectId& id) const { return bindings_.contains(id); }
  std::size_t size() const { return bindings_.size(); }

  bool leases_enabled() const {
    return network_ != nullptr &&
           network_->cost_model().binding_lease_duration >
               sim::SimDuration::Zero();
  }
  sim::Simulation* simulation() const {
    return network_ == nullptr ? nullptr : &network_->simulation();
  }

  // Number of Lookup calls served; benches report agent load per policy.
  std::uint64_t lookups_served() const { return lookups_served_.value(); }
  std::uint64_t leases_granted() const { return leases_granted_.value(); }
  std::uint64_t invalidations_sent() const {
    return invalidations_sent_.value();
  }
  std::uint64_t invalidations_delivered() const {
    return invalidations_delivered_.value();
  }
  // Live leases, judged at the current sim time (0 when unattached).
  std::size_t live_leases() const;

 private:
  struct HolderRecord {
    sim::NodeId node = 0;
    InvalidationSink* sink = nullptr;
  };

  // Pushes `fresh` (or a drop notice when null) to every live leaseholder of
  // `id` over the simulated network. No-op when leases are off.
  void PushToHolders(const ObjectId& id, const ObjectAddress* fresh);
  void DeliverInvalidation(std::uint64_t holder, const ObjectId& id,
                           const ObjectAddress& address, bool has_fresh,
                           sim::SimTime lease_expiry);

  std::unordered_map<ObjectId, ObjectAddress, ObjectIdHash> bindings_;
  LeaseTable leases_;
  sim::SimNetwork* network_ = nullptr;  // null until Attach
  sim::NodeId node_ = 0;                // pushes leave from here
  // Holder handles are looked up point-wise (never iterated): registration
  // order must not influence push order, which is fixed by LeaseTable's
  // ordered holder sets instead.
  std::unordered_map<std::uint64_t, HolderRecord> holders_;
  std::uint64_t next_holder_ = 1;
  // Atomic (trace::Counter): Lookup is const and callers probe agents from
  // concurrent test threads — a plain mutable increment would be a race.
  mutable trace::Counter lookups_served_;
  trace::Counter leases_granted_;
  trace::Counter invalidations_sent_;
  trace::Counter invalidations_delivered_;
};

}  // namespace dcdo
