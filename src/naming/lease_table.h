// LeaseTable: the binding agent's record of who holds each binding.
//
// Every lease-granting lookup records (object, holder, expiry); when the
// binding changes, the agent collects the live holders and pushes them an
// invalidation (see BindingAgent). The table is pure bookkeeping — no time
// source, no I/O — so expiry is judged against a caller-supplied `now` and
// the class is trivial to test.
//
// The table is one map from object to its holders. Holder sets are kept in
// std::map (ordered by holder id) so invalidation pushes iterate in a
// deterministic order: the simulated network serializes sends behind the
// agent's NIC, and an unordered walk would let hash-seed noise reorder
// deliveries between runs. Tearing down a holder walks every object; a
// holder goes only when its cache is destroyed.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/object_id.h"
#include "sim/sim_time.h"

namespace dcdo {

class LeaseTable {
 public:
  // Records (or extends) `holder`'s lease on `id` until `expiry`. Siblings
  // of the same object already expired at `now` are purged in passing,
  // bounding the table to live leases plus at most one stale generation per
  // object.
  void Grant(const ObjectId& id, std::uint64_t holder, sim::SimTime now,
             sim::SimTime expiry);

  // The holders of `id` whose leases are still live at `now`, in ascending
  // holder order. Does not modify the table.
  [[nodiscard]] std::vector<std::uint64_t> LiveHolders(const ObjectId& id,
                                                       sim::SimTime now) const;

  // Forgets every lease on `id` (the binding died with no forwarding
  // address; holders are told to drop, not to re-trust).
  void Drop(const ObjectId& id);

  // Forgets every lease `holder` holds (its cache was destroyed).
  void DropHolder(std::uint64_t holder);

  // Live leases at `now` (counts every (object, holder) pair).
  std::size_t LiveCount(sim::SimTime now) const;

  bool empty() const { return leases_.empty(); }

 private:
  // object -> (holder -> expiry), holders ordered for deterministic pushes.
  std::unordered_map<ObjectId, std::map<std::uint64_t, sim::SimTime>,
                     ObjectIdHash>
      leases_;
};

}  // namespace dcdo
