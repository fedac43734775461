// SimHost: a simulated machine in the testbed.
//
// Models the pieces of a Legion host that the evaluation exercises:
//   * an architecture tag (heterogeneity drives implementation-type checks),
//   * a process table (object activations run as processes; spawning costs
//     CostModel::process_spawn),
//   * a local file store (downloaded executables / captured state), and
//   * a component cache (the paper's "components are cached and available to
//     the DCDO that is evolving" fast path, ~200 us per incorporate).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/object_id.h"
#include "common/status.h"
#include "instrument/metrics.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace dcdo::sim {

// 1999-era Legion platforms; used as implementation-type architectures.
enum class Architecture : std::uint8_t {
  kX86Linux,
  kSparcSolaris,
  kAlphaOsf,
  kX86Nt,
};

std::string_view ArchitectureName(Architecture arch);

using ProcessId = std::uint64_t;

class SimHost {
 public:
  SimHost(Simulation* simulation, SimNetwork* network, NodeId node,
          Architecture arch)
      : simulation_(*simulation), network_(*network), node_(node),
        arch_(arch) {
    network_.AddNode(node);
  }

  NodeId node() const { return node_; }
  Architecture architecture() const { return arch_; }
  bool up() const { return network_.NodeUp(node_); }
  void SetUp(bool up) { network_.SetNodeUp(node_, up); }

  // --- Processes ---

  // Spawns a process for `owner` after CostModel::process_spawn; calls
  // `on_ready(pid)`. The process also charges executable load time for
  // `executable_bytes` read from the local file store. A host that is down
  // when the spawn completes starts no process and answers kUnavailable.
  void SpawnProcess(ObjectId owner, std::size_t executable_bytes,
                    std::function<void(Result<ProcessId>)> on_ready);

  // Registers a process immediately, with no spawn cost. Used for long-lived
  // service objects (binding agents, ICOs, managers) whose startup predates
  // the measured window of an experiment.
  ProcessId AdoptProcess(ObjectId owner);

  // Kills a process immediately (no cost; SIGKILL-like).
  [[nodiscard]] Status KillProcess(ProcessId pid);

  bool ProcessAlive(ProcessId pid) const { return processes_.contains(pid); }
  std::optional<ObjectId> ProcessOwner(ProcessId pid) const;
  std::size_t process_count() const { return processes_.size(); }

  // --- File store (named blobs with sizes; contents tracked by size only) ---

  void StoreFile(const std::string& name, std::size_t bytes);
  bool HasFile(const std::string& name) const { return files_.contains(name); }
  std::optional<std::size_t> FileSize(const std::string& name) const;
  void RemoveFile(const std::string& name);

  // --- Component cache (LRU, bounded by
  // CostModel::component_cache_capacity; 0 = unbounded). Eviction is safe by
  // construction: a dropped image is re-fetched from its ICO on next use. ---

  void CacheComponent(const ObjectId& component, std::size_t bytes);
  // Lookups count as use: a hit refreshes the entry's LRU position, exactly
  // like BindingCache — the incorporate fast path keeps hot images resident.
  bool ComponentCached(const ObjectId& component) const;
  std::optional<std::size_t> CachedComponentSize(
      const ObjectId& component) const;
  void EvictComponent(const ObjectId& component);
  std::size_t cached_component_count() const {
    return component_cache_.size();
  }
  std::uint64_t component_evictions() const {
    return component_evictions_.value();
  }

  Simulation& simulation() { return simulation_; }
  SimNetwork& network() { return network_; }
  const CostModel& cost_model() const { return network_.cost_model(); }

 private:
  struct Process {
    ObjectId owner;
    SimTime started;
  };

  struct CachedComponent {
    std::size_t bytes = 0;
    std::list<ObjectId>::iterator lru_it;  // position in lru_ (front = MRU)
  };

  void TouchComponent(const CachedComponent& entry) const {
    // LRU recency refresh on a logically-const lookup. SimHost is driven
    // only by the single-threaded simulation event loop, so the mutable
    // list write cannot race.
    component_lru_.splice(component_lru_.begin(),  // NOLINT(dcdo-mutable-nonatomic-in-const)
                          component_lru_, entry.lru_it);
  }

  Simulation& simulation_;
  SimNetwork& network_;
  NodeId node_;
  Architecture arch_;
  ProcessId next_pid_ = 1;
  std::unordered_map<ProcessId, Process> processes_;
  std::unordered_map<std::string, std::size_t> files_;
  std::unordered_map<ObjectId, CachedComponent, ObjectIdHash>
      component_cache_;
  // mutable: const lookups refresh recency, as in BindingCache.
  mutable std::list<ObjectId> component_lru_;  // front = most recently used
  trace::Counter component_evictions_;
};

}  // namespace dcdo::sim
