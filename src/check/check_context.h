// CheckContext: the always-on invariant checking layer of the simulator.
//
// One CheckContext is installed per testbed (process-globally reachable via
// Current(), so instrumentation sites deep in the stack need no plumbing).
// Instrumented layers feed it three kinds of input:
//
//   snapshot probes — closures registered by live objects (Dcdo, binding
//     caches, the network) that report their current state when asked;
//   event hooks     — notifications of semantically interesting actions
//     (call start/end, component removal, evolution begin/commit/end,
//     endpoint open/close, binding refresh), which also drive the logical
//     race detector (see race_detector.h);
//   invariants      — named predicates over the registered probes, evaluated
//     every simulation event or every kEvaluateEvery events, and once more
//     at end of run.
//
// Shipped invariants (registered by the constructor; see invariants.cc):
//
//   version-monotonic    (core)   a DCDO's version changes only through an
//                                 instrumented evolution; the live version
//                                 always equals the causally recorded one;
//   single-evolution     (core)   at most one in-flight evolution per object;
//   dfm-no-dangling      (dfm)    no in-flight invocation references a
//                                 component that has been retired from its
//                                 object's DFM;
//   dfm-integrity        (dfm)    each object's DFM table is self-consistent
//                                 (one enabled impl per function, permanent
//                                 implies enabled, mandatory implies present,
//                                 rows only for incorporated components);
//   thread-accounting    (dfm)    the mapper's active-thread counts agree
//                                 with the checker's in-flight call ledger;
//   binding-coherence    (naming) a cached binding never points at an address
//                                 that was never a live activation: stale
//                                 entries are legal only with a
//                                 stale-binding fault pending (the address
//                                 was once live and has been retired);
//   message-conservation (rpc/sim) control messages are conserved:
//                                 sent = delivered + dropped-in-flight +
//                                 queued, and nothing is still queued once
//                                 the simulator goes idle.
//
// Cost when not installed: every instrumentation site is one null test on
// Current(); a Testbed built with Options::checking = false installs none.
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

#include "check/diagnostics.h"
#include "check/race_detector.h"
#include "common/object_id.h"
#include "common/version_id.h"
#include "sim/simulation.h"

namespace dcdo::check {

// What a Dcdo reports about itself when probed.
struct ObjectStatusSnapshot {
  ObjectId id;
  std::string name;
  VersionId version;
  bool active = true;
  std::vector<ObjectId> components;       // incorporated component ids
  int total_active_threads = 0;           // mapper's view
  std::vector<std::string> config_anomalies;  // DfmState::CheckIntegrity()
  // Current activation address.
  std::uint32_t node = 0;
  std::uint64_t pid = 0;
  std::uint64_t epoch = 0;
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

class CheckContext;

// A named predicate over the context's registered probes. `check` records
// any violations into ctx.diagnostics() (use ctx.Report for deduping).
struct Invariant {
  std::string name;         // e.g. "version-monotonic"
  std::string layer;        // the layer it guards: "core", "dfm", "naming"...
  std::string paper;        // the paper passage it encodes
  std::function<void(CheckContext&)> check;
};

class CheckContext {
 public:
  enum class Cadence : std::uint8_t { kEveryEvent, kEveryN };
  // kEveryN: evaluate every kEvaluateEvery sim events.
  static constexpr std::uint64_t kEvaluateEvery = 64;

  struct Options {
    Cadence cadence = Cadence::kEveryN;
  };

  CheckContext();
  explicit CheckContext(const Options& options);
  ~CheckContext();
  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  // --- global installation (how instrumentation sites find the context) ---

  static CheckContext* Current();
  void Install();    // makes this the process-current context
  void Uninstall();  // clears it, if this is the current one

  // Installs the per-event observer on `simulation` and uses it as the time
  // and event-count source for stamps.
  void AttachSimulation(sim::Simulation* simulation);

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

  // --- event hooks (instrumentation sites; also callable by tests to
  //     construct violations) ---

  void OnCallStart(const ObjectId& object, const std::string& function,
                   const ObjectId& component);
  void OnCallEnd(const ObjectId& object, const std::string& function,
                 const ObjectId& component);
  void OnComponentRemoved(const ObjectId& object, const ObjectId& component,
                          bool forced);
  void OnImplSwapped(const ObjectId& object, const std::string& function,
                     const ObjectId& from_component,
                     const ObjectId& to_component, int active_on_from);
  void OnEvolveBegin(const ObjectId& object, const VersionId& from,
                     const VersionId& to);
  void OnVersionChanged(const ObjectId& object, const VersionId& from,
                        const VersionId& to);
  void OnEvolveEnd(const ObjectId& object, bool ok);
  void OnEndpointOpened(std::uint32_t node, std::uint64_t pid,
                        std::uint64_t epoch);
  void OnEndpointClosed(std::uint32_t node, std::uint64_t pid);
  void OnBindingRefreshed(const ObjectId& object, std::uint32_t node,
                          std::uint64_t pid, std::uint64_t epoch);
  // Audit-trail note (kInfo), e.g. coordinated-update batches.
  void Note(const std::string& source, const std::string& message);

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
  // advanced by OnVersionChanged).
  bool RecordedVersion(const ObjectId& id, VersionId* out) const;

 private:
  void OnSimulationEvent();

  Options options_;
  mutable std::recursive_mutex mutex_;
  sim::Simulation* simulation_ = nullptr;

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
// CheckContext constructor.
void RegisterBuiltinInvariants(CheckContext& ctx);

// The hook macro instrumentation sites use: a null test before the call.
#define DCDO_CHECK_HOOK(call)                      \
  do {                                             \
    ::dcdo::check::CheckContext* dcdo_check_ctx_ = \
        ::dcdo::check::CheckContext::Current();    \
    if (dcdo_check_ctx_ != nullptr) {              \
      dcdo_check_ctx_->call;                       \
    }                                              \
  } while (false)

}  // namespace dcdo::check
