// The shipped invariant set (see checker.h for the catalogue).
//
// Each invariant is a predicate over the checker's registered probes; all are
// written to be re-evaluated arbitrarily often (after every simulation
// event), so every one dedupes through ctx.Report and, where the
// offending state keeps mutating (counters), through a coarse first-report
// key so one broken condition yields one diagnostic, not a flood.
#include <algorithm>
#include <string>

#include "instrument/checker.h"

namespace dcdo::check {
namespace {

// version-monotonic: the live version of every registered object equals the
// version the checker recorded causally (seeded at registration, advanced
// only by a committed EvolveEnd fact). Any other movement means the version
// changed outside an instrumented evolution — or moved backwards.
void CheckVersionMonotonic(Checker& ctx) {
  for (const ObjectId& id : ctx.RegisteredObjects()) {
    ObjectStatusSnapshot snapshot;
    if (!ctx.Probe(id, &snapshot)) continue;
    VersionId recorded;
    if (!ctx.RecordedVersion(id, &recorded)) continue;
    if (snapshot.version == recorded) continue;
    if (!ctx.races().FirstReport("version-monotonic|" + id.ToString())) {
      continue;
    }
    Diagnostic d = ctx.MakeDiagnostic(
        Severity::kError, "version-monotonic", id,
        "live version " + snapshot.version.ToString() +
            " diverged from the causally recorded version " +
            recorded.ToString() +
            ": the version changed outside an instrumented evolution");
    d.version = snapshot.version;
    ctx.Report(std::move(d));
  }
}

// single-evolution: at most one EvolveTo in flight per object. The race
// detector reports the precise overlap at OnEvolveBegin; this predicate is
// the steady-state restatement, so an on-demand Evaluate() still catches it.
void CheckSingleEvolution(Checker& ctx) {
  for (const ObjectId& id : ctx.RegisteredObjects()) {
    int open = ctx.races().OpenEvolutions(id);
    if (open <= 1) continue;
    if (!ctx.races().FirstReport("single-evolution|steady|" + id.ToString())) {
      continue;
    }
    ctx.Report(ctx.MakeDiagnostic(
        Severity::kError, "single-evolution", id,
        std::to_string(open) +
            " evolutions are simultaneously in flight; the paper's update "
            "protocol serialises evolutions per object"));
  }
}

// dfm-no-dangling: every in-flight invocation's component is still
// incorporated in its object's DFM. A component that disappeared through an
// instrumented removal is a known (paper-legal) overlap — the thread may
// proceed inside the deactivated function — and warns; a component that
// vanished with no removal ever instrumented is true dangling state.
void CheckDfmNoDangling(Checker& ctx) {
  for (const RaceDetector::InFlightCall& call : ctx.races().in_flight()) {
    ObjectStatusSnapshot snapshot;
    if (!ctx.Probe(call.object, &snapshot)) continue;
    if (std::find(snapshot.components.begin(), snapshot.components.end(),
                  call.component) != snapshot.components.end()) {
      continue;
    }
    bool explained = ctx.races().WasRetired(call.object, call.component);
    if (!ctx.races().FirstReport("dfm-no-dangling|" +
                                 std::to_string(call.token))) {
      continue;
    }
    ctx.Report(ctx.MakeDiagnostic(
        explained ? Severity::kWarning : Severity::kError,
        "dfm-no-dangling", call.object,
        "invocation of '" + call.function + "' is executing in component " +
            call.component.ToString() +
            " which is no longer incorporated in the object's DFM" +
            (explained ? " (retired by an instrumented removal; the thread "
                         "proceeds in a deactivated function)"
                       : " and no instrumented removal explains its "
                         "disappearance")));
  }
}

// dfm-integrity: the object's DFM table is self-consistent, as reported by
// DfmState::CheckIntegrity() through the object probe.
void CheckDfmIntegrity(Checker& ctx) {
  for (const ObjectId& id : ctx.RegisteredObjects()) {
    ObjectStatusSnapshot snapshot;
    if (!ctx.Probe(id, &snapshot)) continue;
    for (const std::string& anomaly : snapshot.config_anomalies) {
      // ctx.Report's (invariant, object, message) key dedupes re-evaluation.
      ctx.Report(ctx.MakeDiagnostic(Severity::kError, "dfm-integrity", id,
                                    anomaly));
    }
  }
}

// thread-accounting: the mapper's total active-thread count agrees with the
// checker's in-flight invocation ledger for every registered object. Calls
// executing in a component that is no longer incorporated are excluded: a
// forced removal drops the mapper's entries (and their counts) while the
// thread keeps running — that overlap is dfm-no-dangling's to report.
void CheckThreadAccounting(Checker& ctx) {
  for (const ObjectId& id : ctx.RegisteredObjects()) {
    ObjectStatusSnapshot snapshot;
    if (!ctx.Probe(id, &snapshot)) continue;
    int ledger = 0;
    for (const RaceDetector::InFlightCall& call : ctx.races().in_flight()) {
      if (call.object != id) continue;
      if (std::find(snapshot.components.begin(), snapshot.components.end(),
                    call.component) == snapshot.components.end()) {
        continue;
      }
      ++ledger;
    }
    if (snapshot.total_active_threads == ledger) continue;
    if (!ctx.races().FirstReport("thread-accounting|" + id.ToString())) {
      continue;
    }
    ctx.Report(ctx.MakeDiagnostic(
        Severity::kError, "thread-accounting", id,
        "mapper reports " + std::to_string(snapshot.total_active_threads) +
            " active thread(s) but the invocation ledger holds " +
            std::to_string(ledger) +
            ": call starts and ends are not balanced"));
  }
}

// binding-coherence: every cached binding points at an address that is either
// live right now or was once live and has been retired (in which case the
// stale-binding fault protocol will repair the cache on next use). An address
// that is dead and was never retired cannot be explained by any fault.
void CheckBindingCoherence(Checker& ctx) {
  for (const CacheEntrySnapshot& entry : ctx.ProbeCaches()) {
    if (ctx.EndpointLive(entry.node, entry.pid, entry.epoch)) continue;
    if (ctx.EndpointWasClosed(entry.node, entry.pid)) continue;
    if (!ctx.races().FirstReport(
            "binding-coherence|" + entry.object.ToString() + "|" +
            std::to_string(entry.node) + "/" + std::to_string(entry.pid) +
            "/" + std::to_string(entry.epoch))) {
      continue;
    }
    ctx.Report(ctx.MakeDiagnostic(
        Severity::kError, "binding-coherence", entry.object,
        "cached binding points at node=" + std::to_string(entry.node) +
            " pid=" + std::to_string(entry.pid) +
            " epoch=" + std::to_string(entry.epoch) +
            " which is not live and was never a retired activation: no "
            "stale-binding fault is pending to repair it"));
  }
}

// message-conservation: control messages are conserved — every message sent
// is delivered, dropped in flight, or still queued; and once the simulator
// goes idle (end-of-run), nothing may remain queued.
void CheckMessageConservation(Checker& ctx) {
  NetworkCounters counters;
  if (!ctx.ProbeNetwork(&counters)) return;
  std::uint64_t accounted =
      counters.delivered + counters.dropped_in_flight + counters.in_flight;
  if (counters.sent != accounted &&
      ctx.races().FirstReport("message-conservation|balance")) {
    ctx.Report(ctx.MakeDiagnostic(
        Severity::kError, "message-conservation", ObjectId(),
        "sent=" + std::to_string(counters.sent) +
            " != delivered=" + std::to_string(counters.delivered) +
            " + dropped-in-flight=" +
            std::to_string(counters.dropped_in_flight) +
            " + in-flight=" + std::to_string(counters.in_flight)));
  }
  if (ctx.at_end() && counters.in_flight != 0 &&
      ctx.races().FirstReport("message-conservation|quiescence")) {
    ctx.Report(ctx.MakeDiagnostic(
        Severity::kError, "message-conservation", ObjectId(),
        std::to_string(counters.in_flight) +
            " message(s) still in flight at end of run: the simulator went "
            "idle with undelivered traffic"));
  }
}

}  // namespace

void RegisterBuiltinInvariants(Checker& ctx) {
  ctx.RegisterInvariant(
      {"version-monotonic", "core",
       "Section 4: version identifiers grow monotonically along the "
       "derivation chain; an instance's version changes only by evolution",
       CheckVersionMonotonic});
  ctx.RegisterInvariant(
      {"single-evolution", "core",
       "Section 5: the update protocol serialises configuration changes per "
       "object",
       CheckSingleEvolution});
  ctx.RegisterInvariant(
      {"dfm-no-dangling", "dfm",
       "Section 3.2: removing a component removes its DFM entries; threads "
       "may proceed inside deactivated functions",
       CheckDfmNoDangling});
  ctx.RegisterInvariant(
      {"dfm-integrity", "dfm",
       "Section 3.2: one enabled implementation per function; permanent "
       "implies enabled; mandatory functions keep an implementation",
       CheckDfmIntegrity});
  ctx.RegisterInvariant(
      {"thread-accounting", "dfm",
       "Section 3.2: the DFM monitors thread activity per function and "
       "component",
       CheckThreadAccounting});
  ctx.RegisterInvariant(
      {"binding-coherence", "naming",
       "Section 6: stale bindings are detected as binding faults and "
       "repaired by rebinding through the agent",
       CheckBindingCoherence});
  ctx.RegisterInvariant(
      {"message-conservation", "rpc",
       "Section 6: invocations retry on timeout; messages are delivered, "
       "lost, or pending — never silently created or destroyed",
       CheckMessageConservation});
}

}  // namespace dcdo::check
