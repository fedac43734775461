// Logical race detection over the deterministic simulator.
//
// The simulator is single-threaded, so there are no data races to find; what
// can still go wrong is the paper's core hazard: a configuration change that
// overlaps an un-quiesced invocation epoch ("update while invocations
// outstanding", Section 3.2). The detector tracks happens-before order with
// stamps — (simulated time, simulation event count, Lamport counter advanced
// on every instrumented action and joined across causal message edges) — and
// keeps two ledgers:
//
//   in-flight invocations — one record per live DFM CallGuard, opened by
//     OnCallStart and closed by OnCallEnd;
//   evolution windows     — one per in-flight Dcdo::EvolveTo, opened by
//     OnEvolveBegin and closed by OnEvolveEnd, remembering which invocations
//     were already running when the evolution began.
//
// Diagnostics produced:
//   race-forced-removal      (error)   a component was force-removed while
//                                      invocations were live inside it — the
//                                      removal does not happen-after the
//                                      invocation ends;
//   race-overlapping-evolution (warning) an evolution committed its version
//                                      while invocations that predate the
//                                      evolution were still running (legal
//                                      per the paper — "there is no reason
//                                      why a thread cannot proceed inside a
//                                      deactivated function" — but worth a
//                                      structured diagnostic, since the
//                                      thread now executes retired code);
//   race-unquiesced-swap     (warning) switchImplementation replaced an
//                                      implementation that had live threads;
//   single-evolution         (error)   a second EvolveTo began while another
//                                      was still in flight on the same
//                                      object.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/version_id.h"
#include "instrument/diagnostics.h"

namespace dcdo::check {

// A happens-before stamp: an action A happens-before B iff A's stamp was
// taken earlier on the single simulator timeline (lamport strictly smaller).
struct Stamp {
  sim::SimTime time;
  std::uint64_t event_id = 0;  // simulation events fired so far
  std::uint64_t lamport = 0;   // logical clock over instrumented actions
};

class RaceDetector {
 public:
  explicit RaceDetector(Diagnostics* sink) : sink_(*sink) {}

  // --- invocation ledger ---
  void OnCallStart(const ObjectId& object, const std::string& function,
                   const ObjectId& component, const Stamp& stamp);
  void OnCallEnd(const ObjectId& object, const std::string& function,
                 const ObjectId& component, const Stamp& stamp);

  // --- configuration-change edges ---
  void OnComponentRemoved(const ObjectId& object, const ObjectId& component,
                          bool forced, const Stamp& stamp);
  void OnImplSwapped(const ObjectId& object, const std::string& function,
                     const ObjectId& from_component,
                     const ObjectId& to_component, int active_on_from,
                     const Stamp& stamp);

  // --- evolution windows ---
  void OnEvolveBegin(const ObjectId& object, const VersionId& from,
                     const VersionId& to, const Stamp& stamp);
  void OnVersionChanged(const ObjectId& object, const VersionId& from,
                        const VersionId& to, const Stamp& stamp);
  void OnEvolveEnd(const ObjectId& object, bool ok, const Stamp& stamp);

  // --- queries (used by Checker invariants and tests) ---
  int InFlightCalls(const ObjectId& object) const;
  int OpenEvolutions(const ObjectId& object) const;

  struct InFlightCall {
    std::uint64_t token = 0;
    ObjectId object;
    std::string function;
    ObjectId component;
    Stamp start;
  };
  const std::vector<InFlightCall>& in_flight() const { return in_flight_; }

  // Components retired (by any removal) per object — used by the
  // dfm-no-dangling invariant to phrase its diagnostics.
  bool WasRetired(const ObjectId& object, const ObjectId& component) const;

  // Dedupe helper for invariants that re-evaluate: true the first time the
  // key is seen.
  bool FirstReport(const std::string& key);

 private:
  struct EvolutionWindow {
    VersionId from;
    VersionId to;
    Stamp begin;
    std::set<std::uint64_t> calls_at_begin;  // tokens live when it opened
  };

  Diagnostics& sink_;
  std::uint64_t next_token_ = 1;
  std::vector<InFlightCall> in_flight_;
  std::map<ObjectId, std::vector<EvolutionWindow>> windows_;
  std::set<std::pair<ObjectId, ObjectId>> retired_;  // (object, component)
  std::set<std::string> reported_;
};

}  // namespace dcdo::check
