// BindingCache: a client's local cache of object bindings.
//
// The paper observes that after a monolithic Legion object evolves (new
// process, new address), "it takes objects approximately 25 to 35 seconds to
// realize that a local binding contains a physical address that the object is
// no longer using". That delay is a client-side protocol: invocations to the
// dead address time out (CostModel::invocation_timeout), are retried
// (stale_retry_count), and only then does the client consult the binding
// agent (rebind_query). This class holds the cache and implements the refresh
// decision; the invoker (rpc layer) drives the retry loop.
//
// When the agent grants leases (it is attached to the simulated network and
// CostModel::binding_lease_duration > 0) the cache also takes part in the
// invalidation protocol: it registers itself as a leaseholder, every fetched
// entry carries its lease expiry, a pushed invalidation replaces (or drops)
// the entry immediately, and an entry whose lease has expired is treated as
// a miss — never served stale past its lease. With leases off, entries never
// expire and staleness is discovered by the rpc layer's timeout probing
// alone (the paper's protocol).
//
// The cache is one unbounded map: a client holds a binding for every object
// it has talked to, and an entry leaves only when it is invalidated, fails a
// refresh or outlives its lease.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/object_id.h"
#include "common/status.h"
#include "instrument/metrics.h"
#include "naming/address.h"
#include "naming/binding_agent.h"
#include "sim/simulation.h"

namespace dcdo {

class BindingCache : public InvalidationSink {
 public:
  // `node` is the sim host this cache lives on — the destination for pushed
  // invalidations. Callers outside the simulated cluster (unit tests of the
  // bare cache) may leave it 0; with leases off it is never used.
  explicit BindingCache(BindingAgent* agent, sim::NodeId node = 0);
  ~BindingCache();
  BindingCache(const BindingCache&) = delete;
  BindingCache& operator=(const BindingCache&) = delete;

  // Cached binding if present (and, under leases, not expired), else
  // authoritative lookup (which populates the cache). A cached entry may of
  // course be stale — that is the point.
  [[nodiscard]] Result<ObjectAddress> Resolve(const ObjectId& id);

  // Drops the cached entry and re-fetches from the agent. Returns the fresh
  // binding. The caller charges CostModel::rebind_query in sim time.
  [[nodiscard]] Result<ObjectAddress> RefreshFromAgent(const ObjectId& id);

  // The cached address without any side effects: no stats, no fetch;
  // nullopt when absent or lease-expired. The rpc layer uses this to
  // notice that an invalidation replaced the binding mid-call.
  [[nodiscard]] std::optional<ObjectAddress> CachedAddress(
      const ObjectId& id) const;

  void Invalidate(const ObjectId& id);
  void InvalidateAll();

  // InvalidationSink: the agent pushed a fresh binding (entry is replaced
  // in place under the renewed lease) or a drop notice.
  void OnBindingInvalidated(const ObjectId& id, const ObjectAddress* fresh,
                            sim::SimTime lease_expiry) override;

  bool Cached(const ObjectId& id) const { return cache_.contains(id); }
  std::size_t size() const { return cache_.size(); }

  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t refreshes() const { return refreshes_.value(); }
  std::uint64_t invalidations_received() const {
    return invalidations_received_.value();
  }
  std::uint64_t lease_expirations() const {
    return lease_expirations_.value();
  }

 private:
  struct Entry {
    ObjectAddress address;
    // Leases: the entry is trusted until `lease_expiry`; `leased` is false
    // for entries stored while leases are off (never expire).
    sim::SimTime lease_expiry;
    bool leased = false;
  };

  // Authoritative lookup (lease-granting when registered as a holder) that
  // stores the answer.
  [[nodiscard]] Result<ObjectAddress> Fetch(const ObjectId& id);
  // True when the entry's lease (if any) has run out at the current sim time.
  bool Expired(const Entry& entry) const;

  BindingAgent& agent_;
  sim::NodeId node_ = 0;
  std::unordered_map<ObjectId, Entry, ObjectIdHash> cache_;
  // trace::Counter (atomic): stats siblings of BindingAgent::lookups_served_,
  // readable race-free from concurrent test threads.
  trace::Counter hits_;
  trace::Counter misses_;
  trace::Counter refreshes_;
  trace::Counter invalidations_received_;
  trace::Counter lease_expirations_;
  std::uint64_t check_handle_ = 0;  // binding-coherence probe registration
  std::uint64_t holder_ = 0;       // leaseholder handle (0 = not registered)
};

}  // namespace dcdo
