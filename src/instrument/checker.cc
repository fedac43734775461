#include "instrument/checker.h"

#include <utility>

#include "sim/simulation.h"

namespace dcdo::check {

Checker::Checker() : races_(&diagnostics_) { RegisterBuiltinInvariants(*this); }

void Checker::RegisterObject(const ObjectId& id, ObjectProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Seed the recorded version from the object's own report, so
  // version-monotonic has a causal baseline to compare against.
  if (probe) {
    ObjectStatusSnapshot snapshot = probe();
    recorded_versions_[id] = snapshot.version;
  }
  objects_[id] = std::move(probe);
}

void Checker::UnregisterObject(const ObjectId& id) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  objects_.erase(id);
  recorded_versions_.erase(id);
}

std::uint64_t Checker::RegisterBindingCache(CacheProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::uint64_t handle = next_cache_handle_++;
  caches_[handle] = std::move(probe);
  return handle;
}

void Checker::UnregisterBindingCache(std::uint64_t handle) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  caches_.erase(handle);
}

void Checker::SetEndpointLiveness(EndpointLivenessFn fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  endpoint_liveness_ = std::move(fn);
}

void Checker::SetNetworkProbe(NetworkProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  network_probe_ = std::move(probe);
}

void Checker::Watch(sim::Simulation* simulation) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  simulation_ = simulation;
  if (simulation != nullptr) {
    simulation->SetEventObserver([this](std::uint64_t) { Evaluate(); });
  }
}

void Checker::CallStart(const ObjectId& object, const std::string& function,
                        const ObjectId& component) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnCallStart(object, function, component, NowStamp());
}

void Checker::CallEnd(const ObjectId& object, const std::string& function,
                      const ObjectId& component) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnCallEnd(object, function, component, NowStamp());
}

void Checker::ComponentRemoved(const ObjectId& object,
                               const ObjectId& component, bool forced) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnComponentRemoved(object, component, forced, NowStamp());
}

void Checker::ImplSwapped(const ObjectId& object, const std::string& function,
                          const ObjectId& from_component,
                          const ObjectId& to_component, int active_on_from) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnImplSwapped(object, function, from_component, to_component,
                       active_on_from, NowStamp());
}

void Checker::EvolveBegin(const ObjectId& object, const VersionId& from,
                          const VersionId& to) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnEvolveBegin(object, from, to, NowStamp());
}

void Checker::EvolveEnd(const ObjectId& object, const VersionId& from,
                        const VersionId& to, bool committed) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (committed) {
    races_.OnVersionChanged(object, from, to, NowStamp());
    recorded_versions_[object] = to;
  }
  races_.OnEvolveEnd(object, committed, NowStamp());
}

void Checker::EndpointOpened(std::uint32_t node, std::uint64_t pid) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  closed_endpoints_.erase({node, pid});
}

void Checker::EndpointClosed(std::uint32_t node, std::uint64_t pid) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  closed_endpoints_.insert({node, pid});
}

void Checker::BindingRefreshed(const ObjectId& object, std::uint32_t node,
                               std::uint64_t pid, std::uint64_t epoch) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // A refresh that lands on a dead address the checker has never seen
  // closed is incoherent immediately: the agent handed out an address that
  // cannot carry an invocation and no stale-binding fault will explain it.
  if (EndpointLive(node, pid, epoch) || EndpointWasClosed(node, pid)) return;
  Report(MakeDiagnostic(
      Severity::kError, "binding-coherence", object,
      "binding refresh for " + object.ToString() +
          " installed address node=" + std::to_string(node) +
          " pid=" + std::to_string(pid) + " epoch=" + std::to_string(epoch) +
          " which is not a live endpoint and was never retired: no "
          "stale-binding fault can explain it"));
}

void Checker::AuditNote(std::string message) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  diagnostics_.Record(MakeDiagnostic(Severity::kInfo, "coordinated-update",
                                     ObjectId(), std::move(message)));
}

void Checker::RegisterInvariant(Invariant invariant) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  invariants_.push_back(std::move(invariant));
}

void Checker::Evaluate() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Invariants probe instrumented layers, whose accessors can re-enter hooks;
  // the guard stops recursive evaluation, the recursive mutex the deadlock.
  if (evaluating_) return;
  evaluating_ = true;
  ++evaluations_;
  for (const Invariant& invariant : invariants_) {
    invariant.check(*this);
  }
  evaluating_ = false;
}

void Checker::EvaluateAtEnd() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  at_end_ = true;
  Evaluate();
  at_end_ = false;
}

void Checker::Report(Diagnostic d) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::string key = d.invariant + "|" +
                    (d.object.nil() ? std::string() : d.object.ToString()) +
                    "|" + d.message;
  if (!races_.FirstReport(key)) return;
  diagnostics_.Record(std::move(d));
}

Stamp Checker::NowStamp() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  Stamp stamp;
  if (simulation_ != nullptr) {
    stamp.time = simulation_->Now();
    stamp.event_id = simulation_->events_fired();
  }
  stamp.lamport = ++lamport_;
  return stamp;
}

Diagnostic Checker::MakeDiagnostic(Severity severity, std::string invariant,
                                   const ObjectId& object,
                                   std::string message) {
  Diagnostic d;
  d.severity = severity;
  d.invariant = std::move(invariant);
  Stamp stamp = NowStamp();
  d.time = stamp.time;
  d.event_id = stamp.event_id;
  d.object = object;
  d.message = std::move(message);
  return d;
}

bool Checker::EndpointWasClosed(std::uint32_t node,
                                     std::uint64_t pid) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return closed_endpoints_.contains({node, pid});
}

bool Checker::EndpointLive(std::uint32_t node, std::uint64_t pid,
                                std::uint64_t epoch) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!endpoint_liveness_) return true;  // no transport attached: trust it
  return endpoint_liveness_(node, pid, epoch);
}

std::vector<ObjectId> Checker::RegisteredObjects() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, probe] : objects_) out.push_back(id);
  return out;
}

bool Checker::Probe(const ObjectId& id, ObjectStatusSnapshot* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = objects_.find(id);
  if (it == objects_.end() || !it->second) return false;
  *out = it->second();
  return true;
}

std::vector<CacheEntrySnapshot> Checker::ProbeCaches() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<CacheEntrySnapshot> out;
  for (const auto& [handle, probe] : caches_) {
    if (!probe) continue;
    std::vector<CacheEntrySnapshot> entries = probe();
    out.insert(out.end(), entries.begin(), entries.end());
  }
  return out;
}

bool Checker::ProbeNetwork(NetworkCounters* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!network_probe_) return false;
  *out = network_probe_();
  return true;
}

bool Checker::RecordedVersion(const ObjectId& id, VersionId* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = recorded_versions_.find(id);
  if (it == recorded_versions_.end()) return false;
  *out = it->second;
  return true;
}

}  // namespace dcdo::check
