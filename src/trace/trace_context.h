// TraceContext: the causal tracing layer of the simulator.
//
// One TraceContext is installed per testbed (process-globally reachable via
// ActiveContext(), like check::CheckContext::Current() — instrumentation
// sites deep in the stack need no plumbing). Instrumented layers record
// *spans*: named intervals stamped with both sim time (the clock the paper's
// evaluation runs on) and wall time, linked parent -> child so a remote
// call's full causal path is reconstructible:
//
//   rpc.call (client)                       the whole invocation, keyed by
//     rpc.attempt [attempt=1]               (origin node, call_id)
//       rpc.send (transport marshal+hand-off)
//         net.xfer (wire transfer)
//       rpc.dispatch (server, same call_id)
//         dfm.call (DFM acquire+body)
//     rpc.timeout / rpc.rebind / rpc.attempt [attempt=2] ...
//   evolve (begin -> commit/rollback), update.batch (coordinator)
//
// Causality has two carriage mechanisms:
//   * a scope stack for synchronous nesting — SpanScope pushes its span as
//     the default parent for spans begun beneath it on the same "thread" of
//     execution (the simulator is single-threaded per event);
//   * explicit parent ids for asynchronous hops — per-call records
//     (CallState, the transport's InFlight block, evolution continuations)
//     carry the parent span id across scheduling boundaries.
//
// Retry-attempt annotations ride on the spans (attempt=N), and every span
// carries (node, call_id) when call-scoped, so "which attempts belong to one
// logical call" is a trace query, not a log-grovel.
//
// The context also owns the MetricsRegistry (metrics.h) — counters and
// sim-time histograms replacing the ad-hoc statistics of RpcClient /
// SimNetwork / BindingAgent.
//
// Cost when not installed: instrumentation sites guard on ActiveContext(),
// a single null test; nothing is recorded unless a context is installed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_time.h"
#include "trace/metrics.h"

namespace dcdo::sim {
class Simulation;
}  // namespace dcdo::sim

namespace dcdo::trace {

using SpanId = std::uint64_t;  // 0 = "no span"

// Sentinel parent: "whatever SpanScope is innermost on the scope stack".
// Pass an explicit id for asynchronous hops, or 0 to force a causal root.
inline constexpr SpanId kScopeParent = ~static_cast<SpanId>(0);

struct SpanArgs {
  std::string_view category = {};
  SpanId parent = kScopeParent;
  std::uint32_t node = 0;
  std::uint64_t call_id = 0;
  int attempt = 0;
};

struct Span {
  enum class Kind : std::uint8_t { kInterval, kInstant };

  SpanId id = 0;
  SpanId parent = 0;  // 0 for causal roots
  SpanId root = 0;    // the root of this span's causal tree (itself, if root)
  Kind kind = Kind::kInterval;
  std::string name;      // e.g. "rpc.attempt", "net.xfer", "evolve"
  std::string category;  // "client", "transport", "net", "server", "dfm", ...
  std::uint32_t node = 0;     // the node the work happens on (0 = n/a)
  std::uint64_t call_id = 0;  // 0 when not call-scoped
  int attempt = 0;            // retry-attempt annotation (0 = n/a)
  std::int64_t sim_begin_ns = 0;
  std::int64_t sim_end_ns = -1;  // -1 while the span is open
  std::int64_t wall_begin_ns = 0;
  std::int64_t wall_end_ns = -1;
  std::vector<std::pair<std::string, std::string>> notes;

  bool open() const { return kind == Kind::kInterval && sim_end_ns < 0; }
};

class TraceContext {
 public:
  struct Options {
    // Hard cap on retained spans; beyond it new spans are dropped (counted
    // in dropped_spans()) so a runaway workload cannot eat the heap.
    std::size_t max_spans = 1u << 20;
  };

  TraceContext() : TraceContext(Options{}) {}
  explicit TraceContext(const Options& options);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  // --- global installation (how instrumentation sites find the context) ---

  void Install();    // makes this the process-current context
  void Uninstall();  // clears it, if this is the current one

  // Uses `simulation` as the sim-time source for stamps. Header-only use of
  // Simulation::Now(); the trace library does not link against dcdo_sim.
  void AttachSimulation(sim::Simulation* simulation);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // --- span recording ---

  // Opens a span; returns its id (0 if the span cap dropped it — every other
  // entry point tolerates id 0). Stamps sim + wall begin times.
  SpanId BeginSpan(std::string_view name, const SpanArgs& args = {});
  // Closes the span, stamping end times. No-op for id 0 or a closed span.
  void EndSpan(SpanId id);
  void EndSpan(SpanId id, std::string_view key, std::string_view value);
  // Attaches a key/value note; no-op for id 0.
  void Annotate(SpanId id, std::string_view key, std::string_view value);
  // A zero-duration marker ("rpc.timeout", "net.drop", ...).
  SpanId Instant(std::string_view name, const SpanArgs& args = {});

  // --- the synchronous-nesting scope stack (see SpanScope below) ---

  void PushScope(SpanId id);
  void PopScope();
  SpanId CurrentScope() const;

  // --- queries (tests, export) ---

  std::vector<Span> SnapshotSpans() const;
  std::size_t span_count() const;
  std::uint64_t dropped_spans() const;
  // The span's root id (0 if unknown) — cheap causal-tree lookup.
  SpanId RootOf(SpanId id) const;

 private:
  std::int64_t SimNowNanos() const;
  std::int64_t WallNowNanos() const;

  Options options_;
  sim::Simulation* simulation_ = nullptr;
  std::int64_t wall_origin_ns_ = 0;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
  std::vector<SpanId> scope_stack_;
  std::uint64_t dropped_ = 0;

  MetricsRegistry metrics_;
};

// The process-current context, or nullptr: the guard instrumentation sites
// branch on.
TraceContext* ActiveContext();

// Statement form for one-shot sites, mirroring DCDO_CHECK_HOOK:
//   DCDO_TRACE_HOOK(metrics().GetCounter("rpc.timeouts").Increment());
#define DCDO_TRACE_HOOK(call)                      \
  do {                                             \
    ::dcdo::trace::TraceContext* dcdo_trace_ctx_ = \
        ::dcdo::trace::ActiveContext();            \
    if (dcdo_trace_ctx_ != nullptr) {              \
      dcdo_trace_ctx_->call;                       \
    }                                              \
  } while (false)

// RAII synchronous span: begins on construction, pushes itself as the
// default parent for spans begun beneath it, pops + ends on destruction.
// A no-op when no context is active. Must not outlive the context.
class SpanScope {
 public:
  explicit SpanScope(std::string_view name, const SpanArgs& args = {}) {
    ctx_ = ActiveContext();
    if (ctx_ != nullptr) {
      id_ = ctx_->BeginSpan(name, args);
      ctx_->PushScope(id_);
    }
  }
  ~SpanScope() {
    if (ctx_ != nullptr) {
      ctx_->PopScope();
      ctx_->EndSpan(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  SpanId id() const { return id_; }
  explicit operator bool() const { return ctx_ != nullptr; }
  void Annotate(std::string_view key, std::string_view value) {
    if (ctx_ != nullptr) ctx_->Annotate(id_, key, value);
  }

 private:
  TraceContext* ctx_ = nullptr;
  SpanId id_ = 0;
};

}  // namespace dcdo::trace
