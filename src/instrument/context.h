// instrument::Context: the one installed instrumentation stream.
//
// Instrumented layers report through one process-global context (Current();
// a Testbed installs it when Options::checking or Options::tracing is on).
// It feeds two consumers, each present only when asked for: the checker
// (checker.h: probes, invariants, race detector, diagnostics) and the span
// recorder (spans.h: spans, instants and scope stack; chrome_trace.h
// exports them with the counter totals the caller passes). Counts stay in
// their owners' trace::Counter members (metrics.h), not on the context.
//
// A fact is one typed call at the site that knows it, and the context hands
// it to both consumers: the checker updates its ledgers, the recorder leaves
// a span or an instant (DESIGN.md §9.1 lists which). What only the recorder
// records (rpc, net, fom and dfm.call spans) goes through Spans(); snapshot
// probes register through Probes().
//
// Cost when not installed: every site is one null test on Current().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/object_id.h"
#include "common/status.h"
#include "common/version_id.h"
#include "instrument/checker.h"
#include "instrument/spans.h"

namespace dcdo::sim {
class Simulation;
}  // namespace dcdo::sim

namespace dcdo::instrument {

class Context {
 public:
  struct Options {
    bool checking = false;  // install the checker
    bool tracing = false;   // install the span recorder
    // Hard cap on retained spans; beyond it new spans are dropped (counted
    // in dropped_spans()) so a runaway workload cannot eat the heap.
    std::size_t max_spans = 1u << 20;
  };

  explicit Context(const Options& options);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- global installation (how instrumentation sites find the context) ---

  static Context* Current();
  void Install();    // makes this the process-current context
  void Uninstall();  // clears it, if this is the current one

  // Uses `simulation` as both consumers' clock; with the checker present,
  // also evaluates its invariants after every simulation event.
  void AttachSimulation(sim::Simulation* simulation);

  // The consumers; nullptr when not asked for.
  check::Checker* checker() { return checker_.get(); }
  trace::SpanRecorder* spans() { return spans_.get(); }

  // --- typed facts ---

  void CallStart(const ObjectId& object, const std::string& function,
                 const ObjectId& component);
  void CallEnd(const ObjectId& object, const std::string& function,
               const ObjectId& component);
  // `forced`: the removal overrode live threads.
  void ComponentRemoved(const ObjectId& object, const ObjectId& component,
                        bool forced);
  void ImplSwapped(const ObjectId& object, const std::string& function,
                   const ObjectId& from_component, const ObjectId& to_component,
                   int active_on_from);
  // Opens the evolution; returns its span (0 when untraced), which
  // EvolveEnd closes.
  trace::SpanId EvolveBegin(const ObjectId& object, std::string_view name,
                            std::uint32_t node, const VersionId& from,
                            const VersionId& to);
  // Closes the evolution: on success the version moved from -> to.
  void EvolveEnd(const ObjectId& object, trace::SpanId span,
                 const VersionId& from, const VersionId& to,
                 const Status& outcome);
  void EndpointOpened(std::uint32_t node, std::uint64_t pid,
                      std::uint64_t epoch);
  void EndpointClosed(std::uint32_t node, std::uint64_t pid);
  // The cache on `at_node` now maps `object` to (node, pid, epoch).
  void BindingRefreshed(std::uint32_t at_node, const ObjectId& object,
                        std::uint32_t node, std::uint64_t pid,
                        std::uint64_t epoch);
  void UpdateBegun(std::size_t steps);
  void UpdateApplied(std::size_t applied);
  void UpdateRolledBack(std::size_t rolled_back, const Status& cause);

 private:
  std::unique_ptr<check::Checker> checker_;
  std::unique_ptr<trace::SpanRecorder> spans_;
};

// The installed span recorder, or nullptr (nothing installed, or tracing
// off): the guard span-only sites branch on.
inline trace::SpanRecorder* Spans() {
  Context* context = Context::Current();
  return context == nullptr ? nullptr : context->spans();
}

// The installed checker, or nullptr: live objects register their snapshot
// probes with it.
inline check::Checker* Probes() {
  Context* context = Context::Current();
  return context == nullptr ? nullptr : context->checker();
}

// Statement form for fact sites: a null test before the call.
//   DCDO_INSTRUMENT(EndpointClosed(node, pid));
#define DCDO_INSTRUMENT(call)                                \
  do {                                                       \
    ::dcdo::instrument::Context* dcdo_instrument_ctx_ =      \
        ::dcdo::instrument::Context::Current();              \
    if (dcdo_instrument_ctx_ != nullptr) {                   \
      dcdo_instrument_ctx_->call;                            \
    }                                                        \
  } while (false)

// RAII synchronous span: begins on construction, pushes itself as the
// default parent for spans begun beneath it, pops + ends on destruction.
// A no-op when no recorder is installed. Must not outlive the context.
class SpanScope {
 public:
  explicit SpanScope(std::string_view name, const trace::SpanArgs& args = {}) {
    spans_ = Spans();
    if (spans_ != nullptr) {
      id_ = spans_->BeginSpan(name, args);
      spans_->PushScope(id_);
    }
  }
  ~SpanScope() {
    if (spans_ != nullptr) {
      spans_->PopScope();
      spans_->EndSpan(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  trace::SpanId id() const { return id_; }
  explicit operator bool() const { return spans_ != nullptr; }
  void Annotate(std::string_view key, std::string_view value) {
    if (spans_ != nullptr) spans_->Annotate(id_, key, value);
  }

 private:
  trace::SpanRecorder* spans_ = nullptr;
  trace::SpanId id_ = 0;
};

}  // namespace dcdo::instrument
