// SpanRecorder: the causal-tracing consumer of the instrumentation stream.
//
// It exists on the installed instrument::Context (context.h) when tracing is
// on; sites reach it through instrument::Spans(). Instrumented layers record
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
//   evolve (begin -> outcome)
//     dcdo.evolve [phase=acquire|commit] (the evolution's Fom)
//
// plus the instants the context's typed facts leave (DESIGN.md §9.1).
//
// The recorder holds spans and nothing else: a latency is its span's
// duration, and a count lives in its owner's trace::Counter (metrics.h).
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
#pragma once

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

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

// A key/value note handed to BeginSpan or Instant.
using Note = std::pair<std::string_view, std::string_view>;

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
  std::vector<std::pair<std::string, std::string>> notes;

  bool open() const { return kind == Kind::kInterval && sim_end_ns < 0; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t max_spans);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Stamps sim times from `simulation` (0 while none is set).
  void SetClock(const sim::Simulation* simulation) {
    simulation_ = simulation;
  }

  // --- span recording ---

  // Opens a span with its first notes; returns its id (0 if the span cap
  // dropped it — every other entry point tolerates id 0). Stamps sim + wall
  // begin times.
  SpanId BeginSpan(std::string_view name, const SpanArgs& args = {},
                   std::initializer_list<Note> notes = {});
  // Closes the span, stamping its end time, with a `key` note unless `key`
  // is empty. No-op for id 0 or a closed span.
  void EndSpan(SpanId id, std::string_view key = {},
               std::string_view value = {});
  // Attaches a key/value note; no-op for id 0.
  void Annotate(SpanId id, std::string_view key, std::string_view value);
  // A zero-duration marker ("rpc.timeout", "net.drop", ...) with its notes.
  SpanId Instant(std::string_view name, const SpanArgs& args = {},
                 std::initializer_list<Note> notes = {});

  // --- the synchronous-nesting scope stack (see SpanScope in context.h) ---

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
  SpanId Open(std::string_view name, const SpanArgs& args, Span::Kind kind,
              std::initializer_list<Note> notes);
  std::int64_t SimNowNanos() const;
  std::int64_t WallNowNanos() const;

  const std::size_t max_spans_;
  const sim::Simulation* simulation_ = nullptr;
  std::int64_t wall_origin_ns_ = 0;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
  std::vector<SpanId> scope_stack_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dcdo::trace
