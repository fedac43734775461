#include "check/check_context.h"

#include <atomic>
#include <utility>

namespace dcdo::check {
namespace {

// The process-current context. Plain atomic pointer: installation happens at
// testbed construction, lookup on every instrumented action.
std::atomic<CheckContext*> g_current{nullptr};

}  // namespace

CheckContext::CheckContext() : CheckContext(Options{}) {}

CheckContext::CheckContext(const Options& options)
    : options_(options), races_(&diagnostics_) {
  RegisterBuiltinInvariants(*this);
}

CheckContext::~CheckContext() { Uninstall(); }

CheckContext* CheckContext::Current() {
  return g_current.load(std::memory_order_acquire);
}

void CheckContext::Install() {
  g_current.store(this, std::memory_order_release);
}

void CheckContext::Uninstall() {
  CheckContext* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void CheckContext::AttachSimulation(sim::Simulation* simulation) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  simulation_ = simulation;
  if (simulation_ != nullptr) {
    simulation_->SetEventObserver(
        [this](std::uint64_t) { OnSimulationEvent(); });
  }
}

void CheckContext::OnSimulationEvent() {
  std::uint64_t fired = simulation_ != nullptr ? simulation_->events_fired() : 0;
  if (options_.cadence == Cadence::kEveryN && fired % kEvaluateEvery != 0) {
    return;
  }
  Evaluate();
}

void CheckContext::RegisterObject(const ObjectId& id, ObjectProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Seed the recorded version from the object's own report, so
  // version-monotonic has a causal baseline to compare against.
  if (probe) {
    ObjectStatusSnapshot snapshot = probe();
    recorded_versions_[id] = snapshot.version;
  }
  objects_[id] = std::move(probe);
}

void CheckContext::UnregisterObject(const ObjectId& id) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  objects_.erase(id);
  recorded_versions_.erase(id);
}

std::uint64_t CheckContext::RegisterBindingCache(CacheProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::uint64_t handle = next_cache_handle_++;
  caches_[handle] = std::move(probe);
  return handle;
}

void CheckContext::UnregisterBindingCache(std::uint64_t handle) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  caches_.erase(handle);
}

void CheckContext::SetEndpointLiveness(EndpointLivenessFn fn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  endpoint_liveness_ = std::move(fn);
}

void CheckContext::SetNetworkProbe(NetworkProbe probe) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  network_probe_ = std::move(probe);
}

void CheckContext::RegisterInvariant(Invariant invariant) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  invariants_.push_back(std::move(invariant));
}

void CheckContext::Evaluate() {
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

void CheckContext::EvaluateAtEnd() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  at_end_ = true;
  Evaluate();
  at_end_ = false;
}

void CheckContext::Report(Diagnostic d) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::string key = d.invariant + "|" +
                    (d.object.nil() ? std::string() : d.object.ToString()) +
                    "|" + d.message;
  if (!races_.FirstReport(key)) return;
  diagnostics_.Record(std::move(d));
}

Stamp CheckContext::NowStamp() {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  Stamp stamp;
  if (simulation_ != nullptr) {
    stamp.time = simulation_->Now();
    stamp.event_id = simulation_->events_fired();
  }
  stamp.lamport = ++lamport_;
  return stamp;
}

void CheckContext::OnCallStart(const ObjectId& object,
                               const std::string& function,
                               const ObjectId& component) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnCallStart(object, function, component, NowStamp());
}

void CheckContext::OnCallEnd(const ObjectId& object,
                             const std::string& function,
                             const ObjectId& component) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnCallEnd(object, function, component, NowStamp());
}

void CheckContext::OnComponentRemoved(const ObjectId& object,
                                      const ObjectId& component, bool forced) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnComponentRemoved(object, component, forced, NowStamp());
}

void CheckContext::OnImplSwapped(const ObjectId& object,
                                 const std::string& function,
                                 const ObjectId& from_component,
                                 const ObjectId& to_component,
                                 int active_on_from) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnImplSwapped(object, function, from_component, to_component,
                       active_on_from, NowStamp());
}

void CheckContext::OnEvolveBegin(const ObjectId& object, const VersionId& from,
                                 const VersionId& to) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnEvolveBegin(object, from, to, NowStamp());
}

void CheckContext::OnVersionChanged(const ObjectId& object,
                                    const VersionId& from,
                                    const VersionId& to) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnVersionChanged(object, from, to, NowStamp());
  // Advance the causal record: this is the one legal way a version moves.
  recorded_versions_[object] = to;
}

void CheckContext::OnEvolveEnd(const ObjectId& object, bool ok) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  races_.OnEvolveEnd(object, ok, NowStamp());
}

void CheckContext::OnEndpointOpened(std::uint32_t node, std::uint64_t pid,
                                    std::uint64_t epoch) {
  (void)epoch;
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  closed_endpoints_.erase({node, pid});
}

void CheckContext::OnEndpointClosed(std::uint32_t node, std::uint64_t pid) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  closed_endpoints_.insert({node, pid});
}

void CheckContext::OnBindingRefreshed(const ObjectId& object,
                                      std::uint32_t node, std::uint64_t pid,
                                      std::uint64_t epoch) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // A refresh that lands on a dead address the checker has never seen closed
  // is incoherent immediately: the agent handed out an address that cannot
  // carry an invocation and no stale-binding fault will explain it.
  if (!EndpointLive(node, pid, epoch) && !EndpointWasClosed(node, pid)) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.invariant = "binding-coherence";
    Stamp stamp = NowStamp();
    d.time = stamp.time;
    d.event_id = stamp.event_id;
    d.object = object;
    d.message = "binding refresh for " + object.ToString() +
                " installed address node=" + std::to_string(node) +
                " pid=" + std::to_string(pid) +
                " epoch=" + std::to_string(epoch) +
                " which is not a live endpoint and was never retired: no "
                "stale-binding fault can explain it";
    Report(std::move(d));
  }
}

void CheckContext::Note(const std::string& source, const std::string& message) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  Diagnostic d;
  d.severity = Severity::kInfo;
  d.invariant = source;
  Stamp stamp = NowStamp();
  d.time = stamp.time;
  d.event_id = stamp.event_id;
  d.message = message;
  diagnostics_.Record(std::move(d));
}

bool CheckContext::EndpointWasClosed(std::uint32_t node,
                                     std::uint64_t pid) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  return closed_endpoints_.contains({node, pid});
}

bool CheckContext::EndpointLive(std::uint32_t node, std::uint64_t pid,
                                std::uint64_t epoch) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!endpoint_liveness_) return true;  // no transport attached: trust it
  return endpoint_liveness_(node, pid, epoch);
}

std::vector<ObjectId> CheckContext::RegisteredObjects() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, probe] : objects_) out.push_back(id);
  return out;
}

bool CheckContext::Probe(const ObjectId& id, ObjectStatusSnapshot* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = objects_.find(id);
  if (it == objects_.end() || !it->second) return false;
  *out = it->second();
  return true;
}

std::vector<CacheEntrySnapshot> CheckContext::ProbeCaches() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  std::vector<CacheEntrySnapshot> out;
  for (const auto& [handle, probe] : caches_) {
    if (!probe) continue;
    std::vector<CacheEntrySnapshot> entries = probe();
    out.insert(out.end(), entries.begin(), entries.end());
  }
  return out;
}

bool CheckContext::ProbeNetwork(NetworkCounters* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!network_probe_) return false;
  *out = network_probe_();
  return true;
}

bool CheckContext::RecordedVersion(const ObjectId& id, VersionId* out) const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  auto it = recorded_versions_.find(id);
  if (it == recorded_versions_.end()) return false;
  *out = it->second;
  return true;
}

}  // namespace dcdo::check
