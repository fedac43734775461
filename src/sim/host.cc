#include "sim/host.h"

#include "common/logging.h"

namespace dcdo::sim {

std::string_view ArchitectureName(Architecture arch) {
  switch (arch) {
    case Architecture::kX86Linux: return "x86-linux";
    case Architecture::kSparcSolaris: return "sparc-solaris";
    case Architecture::kAlphaOsf: return "alpha-osf";
    case Architecture::kX86Nt: return "x86-nt";
  }
  return "unknown";
}

void SimHost::SpawnProcess(ObjectId owner, std::size_t executable_bytes,
                           std::function<void(Result<ProcessId>)> on_ready) {
  const CostModel& cost = cost_model();
  SimDuration total = cost.process_spawn + cost.DiskRead(executable_bytes);
  simulation_.Schedule(total, [this, owner, fn = std::move(on_ready)]() {
    if (!up()) {
      fn(UnavailableError("node " + std::to_string(node_) +
                          " went down while spawning a process"));
      return;
    }
    ProcessId pid = next_pid_++;
    processes_[pid] = Process{owner, simulation_.Now()};
    DCDO_LOG(kDebug) << "host " << node_ << ": spawned pid " << pid
                     << " for object " << owner;
    fn(pid);
  });
}

ProcessId SimHost::AdoptProcess(ObjectId owner) {
  ProcessId pid = next_pid_++;
  processes_[pid] = Process{owner, simulation_.Now()};
  return pid;
}

Status SimHost::KillProcess(ProcessId pid) {
  if (processes_.erase(pid) == 0) {
    return NotFoundError("no process " + std::to_string(pid) + " on host " +
                         std::to_string(node_));
  }
  return Status::Ok();
}

std::optional<ObjectId> SimHost::ProcessOwner(ProcessId pid) const {
  auto it = processes_.find(pid);
  if (it == processes_.end()) return std::nullopt;
  return it->second.owner;
}

void SimHost::StoreFile(const std::string& name, std::size_t bytes) {
  files_[name] = bytes;
}

std::optional<std::size_t> SimHost::FileSize(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

void SimHost::RemoveFile(const std::string& name) { files_.erase(name); }

void SimHost::CacheComponent(const ObjectId& component, std::size_t bytes) {
  auto it = component_cache_.find(component);
  if (it != component_cache_.end()) {
    it->second.bytes = bytes;
    TouchComponent(it->second);
    return;
  }
  component_lru_.push_front(component);
  component_cache_.emplace(component,
                           CachedComponent{bytes, component_lru_.begin()});
  std::size_t capacity = cost_model().component_cache_capacity;
  if (capacity != 0 && component_cache_.size() > capacity) {
    const ObjectId& victim = component_lru_.back();
    DCDO_LOG(kDebug) << "host " << node_ << ": evicting component " << victim
                     << " (cache over " << capacity << ")";
    component_cache_.erase(victim);
    component_lru_.pop_back();
    component_evictions_.Increment();
  }
}

bool SimHost::ComponentCached(const ObjectId& component) const {
  auto it = component_cache_.find(component);
  if (it == component_cache_.end()) return false;
  TouchComponent(it->second);
  return true;
}

std::optional<std::size_t> SimHost::CachedComponentSize(
    const ObjectId& component) const {
  auto it = component_cache_.find(component);
  if (it == component_cache_.end()) return std::nullopt;
  TouchComponent(it->second);
  return it->second.bytes;
}

void SimHost::EvictComponent(const ObjectId& component) {
  auto it = component_cache_.find(component);
  if (it == component_cache_.end()) return;
  component_lru_.erase(it->second.lru_it);
  component_cache_.erase(it);
}

}  // namespace dcdo::sim
