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
// Counter totals ride alongside the events under a top-level "dcdoMetrics"
// key, as {"counters": {name: value, ...}} sorted by name. The totals are
// whatever the caller hands over (Testbed::DumpTrace passes the member
// counters of what the testbed owns); Chrome ignores unknown keys, so the
// file stays loadable while scripts/trace.sh can read the numbers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "instrument/spans.h"

namespace dcdo::trace {

// One exported total: (name, value).
using CounterTotal = std::pair<std::string, std::uint64_t>;

// Renders `spans` and `counters` as a Trace Event JSON object.
std::string ToChromeTraceJson(const std::vector<Span>& spans,
                              std::vector<CounterTotal> counters = {});

// Snapshot + render + write to `path`.
[[nodiscard]] Status WriteChromeTrace(const SpanRecorder& spans,
                                      const std::string& path,
                                      std::vector<CounterTotal> counters = {});

}  // namespace dcdo::trace
