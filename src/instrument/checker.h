// Checker: the invariant-checking consumer of the instrumentation stream.
//
// It exists on the installed instrument::Context (context.h) when checking
// is on. Instrumented layers feed it three kinds of input:
//
//   snapshot probes — closures registered by live objects (Dcdo, binding
//     caches, the network) that report their current state when asked;
//   typed facts     — the calls below, one per fact the context fans out
//     (call start/end, component removal, implementation swap, evolution
//     begin/end, endpoint open/close, binding refresh, coordinated-update
//     notes), which update its ledgers under its lock and drive the
//     logical race detector (race_detector.h);
//   invariants      — named predicates over the registered probes, evaluated
//     after every simulation event and once more at end of run.
//
// The constructor registers seven invariants (invariants.cc), a checked
// Testbed an eighth, operations-complete; catalogue: DESIGN.md §6.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/object_id.h"
#include "common/version_id.h"
#include "instrument/diagnostics.h"
#include "instrument/race_detector.h"

namespace dcdo::sim {
class Simulation;
}  // namespace dcdo::sim

namespace dcdo::check {

// What a Dcdo reports about itself when probed: what the invariants read.
struct ObjectStatusSnapshot {
  VersionId version;
  std::vector<ObjectId> components;       // incorporated component ids
  int total_active_threads = 0;           // mapper's view
  std::vector<std::string> config_anomalies;  // DfmState::CheckIntegrity()
};

// What a binding cache reports: one record per cached entry.
struct CacheEntrySnapshot {
  ObjectId object;
  std::uint32_t node = 0;
  std::uint64_t pid = 0;
  std::uint64_t epoch = 0;
};

// What the network reports for conservation checking.
struct NetworkCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_in_flight = 0;
  std::uint64_t in_flight = 0;
};

class Checker;

// A named predicate over the checker's registered probes. `check` records
// any violations into ctx.diagnostics() (use ctx.Report for deduping).
struct Invariant {
  std::string name;         // e.g. "version-monotonic"
  std::string layer;        // the layer it guards: "core", "dfm", "naming"...
  std::string paper;        // the paper passage it encodes
  std::function<void(Checker&)> check;
};

class Checker {
 public:
  Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  Diagnostics& diagnostics() { return diagnostics_; }
  const Diagnostics& diagnostics() const { return diagnostics_; }
  RaceDetector& races() { return races_; }

  // --- probe registration (instrumented layers and tests) ---

  using ObjectProbe = std::function<ObjectStatusSnapshot()>;
  void RegisterObject(const ObjectId& id, ObjectProbe probe);
  void UnregisterObject(const ObjectId& id);

  using CacheProbe = std::function<std::vector<CacheEntrySnapshot>()>;
  std::uint64_t RegisterBindingCache(CacheProbe probe);
  void UnregisterBindingCache(std::uint64_t handle);

  // Is (node, pid, epoch) a live endpoint right now? Installed by the
  // testbed over the RPC transport.
  using EndpointLivenessFn =
      std::function<bool(std::uint32_t, std::uint64_t, std::uint64_t)>;
  void SetEndpointLiveness(EndpointLivenessFn fn);

  using NetworkProbe = std::function<NetworkCounters()>;
  void SetNetworkProbe(NetworkProbe probe);

  // Stamps facts with `simulation`'s clock and evaluates the invariants
  // after each of its events.
  void Watch(sim::Simulation* simulation);

  // --- typed facts (fed by instrument::Context) ---

  void CallStart(const ObjectId& object, const std::string& function,
                 const ObjectId& component);
  void CallEnd(const ObjectId& object, const std::string& function,
               const ObjectId& component);
  void ComponentRemoved(const ObjectId& object, const ObjectId& component,
                        bool forced);
  void ImplSwapped(const ObjectId& object, const std::string& function,
                   const ObjectId& from_component, const ObjectId& to_component,
                   int active_on_from);
  void EvolveBegin(const ObjectId& object, const VersionId& from,
                   const VersionId& to);
  // A committed evolution is the one legal way a version moves from -> to.
  void EvolveEnd(const ObjectId& object, const VersionId& from,
                 const VersionId& to, bool committed);
  void EndpointOpened(std::uint32_t node, std::uint64_t pid);
  void EndpointClosed(std::uint32_t node, std::uint64_t pid);
  // Reports a refresh onto an address that is neither live nor retired.
  void BindingRefreshed(const ObjectId& object, std::uint32_t node,
                        std::uint64_t pid, std::uint64_t epoch);
  // A coordinated-update audit note (kInfo).
  void AuditNote(std::string message);

  // --- invariants ---

  void RegisterInvariant(Invariant invariant);
  const std::vector<Invariant>& invariants() const { return invariants_; }

  // Runs every invariant once, now.
  void Evaluate();
  // End-of-run evaluation: everything Evaluate() checks, plus
  // quiescence-only conditions (nothing still queued in the network).
  void EvaluateAtEnd();
  bool at_end() const { return at_end_; }
  std::uint64_t evaluations() const { return evaluations_; }

  // Records `d` unless an identical (invariant, object, message) was already
  // reported — invariants re-evaluate, violations report once.
  void Report(Diagnostic d);
  // A diagnostic stamped now.
  Diagnostic MakeDiagnostic(Severity severity, std::string invariant,
                            const ObjectId& object, std::string message);

  // --- queries for invariants and tests ---

  Stamp NowStamp();
  bool EndpointWasClosed(std::uint32_t node, std::uint64_t pid) const;
  bool EndpointLive(std::uint32_t node, std::uint64_t pid,
                    std::uint64_t epoch) const;
  std::vector<ObjectId> RegisteredObjects() const;
  // Probes the registered object; false if unknown.
  bool Probe(const ObjectId& id, ObjectStatusSnapshot* out) const;
  std::vector<CacheEntrySnapshot> ProbeCaches() const;
  bool ProbeNetwork(NetworkCounters* out) const;
  // The version the checker last saw the object at (seeded at registration,
  // advanced by each committed evolution).
  bool RecordedVersion(const ObjectId& id, VersionId* out) const;

 private:
  mutable std::recursive_mutex mutex_;
  const sim::Simulation* simulation_ = nullptr;

  Diagnostics diagnostics_;
  RaceDetector races_;
  std::uint64_t lamport_ = 0;
  std::uint64_t evaluations_ = 0;
  bool at_end_ = false;
  bool evaluating_ = false;

  std::map<ObjectId, ObjectProbe> objects_;
  std::map<ObjectId, VersionId> recorded_versions_;
  std::map<std::uint64_t, CacheProbe> caches_;
  std::uint64_t next_cache_handle_ = 1;
  EndpointLivenessFn endpoint_liveness_;
  NetworkProbe network_probe_;
  std::set<std::pair<std::uint32_t, std::uint64_t>> closed_endpoints_;

  std::vector<Invariant> invariants_;
};

// Registers the shipped invariant set (invariants.cc); called by the
// Checker constructor.
void RegisterBuiltinInvariants(Checker& checker);

}  // namespace dcdo::check
