#include "naming/lease_table.h"

#include <iterator>

namespace dcdo {

void LeaseTable::Grant(const ObjectId& id, std::uint64_t holder,
                       sim::SimTime now, sim::SimTime expiry) {
  auto& holders = leases_[id];
  // Opportunistic purge: leases already expired at `now` would never be
  // pushed anyway (LiveHolders filters them), so drop them while we hold the
  // entry instead of letting dead generations accumulate.
  std::erase_if(holders, [&](const auto& lease) {
    return lease.second <= now && lease.first != holder;
  });
  holders[holder] = expiry;
}

std::vector<std::uint64_t> LeaseTable::LiveHolders(const ObjectId& id,
                                                   sim::SimTime now) const {
  std::vector<std::uint64_t> out;
  auto it = leases_.find(id);
  if (it == leases_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [holder, expiry] : it->second) {
    if (expiry > now) out.push_back(holder);
  }
  return out;
}

void LeaseTable::Drop(const ObjectId& id) { leases_.erase(id); }

void LeaseTable::DropHolder(std::uint64_t holder) {
  for (auto it = leases_.begin(); it != leases_.end();) {
    it->second.erase(holder);
    it = it->second.empty() ? leases_.erase(it) : std::next(it);
  }
}

std::size_t LeaseTable::LiveCount(sim::SimTime now) const {
  std::size_t count = 0;
  for (const auto& [id, holders] : leases_) {
    for (const auto& [holder, expiry] : holders) {
      if (expiry > now) ++count;
    }
  }
  return count;
}

}  // namespace dcdo
