// Chrome-trace (about:tracing / Perfetto) export of a recorded trace.
//
// Spans become complete events (ph "X") and instants become instant events
// (ph "i") on the Trace Event JSON format. Sim time maps onto the `ts`/`dur`
// microsecond axis — the timeline a viewer shows IS the paper's simulated
// timeline. Wall-clock stamps, causal links (parent/root), call ids and
// attempt numbers ride in each event's `args`. Lanes: pid = the simulated
// node, tid = the span category, so one node's client/transport/net/server
// work stacks visually.
//
// Metrics are exported alongside the events under a top-level "dcdoMetrics"
// key (counter values + histogram summaries) — Chrome ignores unknown keys,
// so the file stays loadable while scripts/trace.sh can read the numbers.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "instrument/metrics.h"
#include "instrument/spans.h"

namespace dcdo::trace {

// Renders `spans` (and optionally `metrics`) as a Trace Event JSON object.
std::string ToChromeTraceJson(const std::vector<Span>& spans,
                              const MetricsRegistry* metrics = nullptr);

// Snapshot + render + write to `path`.
[[nodiscard]] Status WriteChromeTrace(const SpanRecorder& spans,
                                      const std::string& path);

}  // namespace dcdo::trace
