#include "naming/binding_cache.h"

#include "instrument/context.h"

namespace dcdo {

BindingCache::BindingCache(BindingAgent* agent, sim::NodeId node)
    : agent_(*agent), node_(node) {
  if (agent_.leases_enabled()) {
    holder_ = agent_.RegisterHolder(node_, this);
  }
  // Expose the cache contents to the binding-coherence invariant. The probe
  // holds a raw `this`; the destructor unregisters before the cache dies.
  if (check::Checker* probes = instrument::Probes()) {
    check_handle_ = probes->RegisterBindingCache([this]() {
      std::vector<check::CacheEntrySnapshot> entries;
      entries.reserve(cache_.size());
      for (const auto& [id, entry] : cache_) {
        entries.push_back(
            {id, entry.address.node, entry.address.pid, entry.address.epoch});
      }
      return entries;
    });
  }
}

BindingCache::~BindingCache() {
  if (holder_ != 0) agent_.UnregisterHolder(holder_);
  check::Checker* probes = instrument::Probes();
  if (probes != nullptr && check_handle_ != 0) {
    probes->UnregisterBindingCache(check_handle_);
  }
}

bool BindingCache::Expired(const Entry& entry) const {
  if (!entry.leased) return false;
  const sim::Simulation* sim = agent_.simulation();
  return sim != nullptr && entry.lease_expiry <= sim->Now();
}

void BindingCache::Invalidate(const ObjectId& id) { cache_.erase(id); }

void BindingCache::InvalidateAll() { cache_.clear(); }

void BindingCache::OnBindingInvalidated(const ObjectId& id,
                                        const ObjectAddress* fresh,
                                        sim::SimTime lease_expiry) {
  invalidations_received_.Increment();
  if (fresh == nullptr || !fresh->valid()) {
    // The binding died with no forwarding address: stop serving it. The next
    // Resolve misses and consults the agent like first contact.
    Invalidate(id);
    return;
  }
  // The agent pushed the replacement binding along with a renewed lease:
  // update in place, so the very next Resolve serves the fresh address.
  cache_.insert_or_assign(id, Entry{*fresh, lease_expiry, true});
  DCDO_INSTRUMENT(BindingRefreshed(node_, id, fresh->node, fresh->pid,
                                   fresh->epoch));
}

std::optional<ObjectAddress> BindingCache::CachedAddress(
    const ObjectId& id) const {
  auto it = cache_.find(id);
  if (it == cache_.end() || Expired(it->second)) return std::nullopt;
  return it->second.address;
}

Result<ObjectAddress> BindingCache::Resolve(const ObjectId& id) {
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    if (!Expired(it->second)) {
      hits_.Increment();
      return it->second.address;
    }
    // The lease ran out with no invalidation seen (lost push, partition, or
    // plain disuse): the entry can no longer be trusted. Drop it and fall
    // through to the authoritative fetch.
    lease_expirations_.Increment();
    cache_.erase(it);
  }
  misses_.Increment();
  return Fetch(id);
}

Result<ObjectAddress> BindingCache::RefreshFromAgent(const ObjectId& id) {
  refreshes_.Increment();
  Invalidate(id);  // a failed lookup must not leave the stale entry behind
  DCDO_ASSIGN_OR_RETURN(ObjectAddress address, Fetch(id));
  DCDO_INSTRUMENT(BindingRefreshed(node_, id, address.node, address.pid,
                                   address.epoch));
  return address;
}

Result<ObjectAddress> BindingCache::Fetch(const ObjectId& id) {
  sim::SimTime expiry{};
  DCDO_ASSIGN_OR_RETURN(ObjectAddress address,
                        holder_ == 0
                            ? agent_.Lookup(id)
                            : agent_.LookupWithLease(id, holder_, &expiry));
  cache_.insert_or_assign(id, Entry{address, expiry, holder_ != 0});
  return address;
}

}  // namespace dcdo
