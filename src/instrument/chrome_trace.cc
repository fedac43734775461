#include "instrument/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace dcdo::trace {
namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendString(std::string& out, std::string_view s) {
  out += '"';
  AppendEscaped(out, s);
  out += '"';
}

// Sim nanoseconds -> the microsecond `ts` axis, with sub-µs precision kept.
void AppendMicros(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  out += buf;
}

void AppendEvent(std::string& out, const Span& span, bool& first) {
  if (!first) out += ",\n";
  first = false;
  const bool instant = span.kind == Span::Kind::kInstant;
  out += "  {\"name\": ";
  AppendString(out, span.name);
  out += ", \"cat\": ";
  AppendString(out, span.category.empty() ? std::string_view("dcdo")
                                          : std::string_view(span.category));
  out += instant ? ", \"ph\": \"i\", \"s\": \"t\"" : ", \"ph\": \"X\"";
  out += ", \"ts\": ";
  AppendMicros(out, span.sim_begin_ns);
  if (!instant) {
    // A span the run never closed exports with zero duration; its "open"
    // note below says why.
    std::int64_t dur =
        span.sim_end_ns >= span.sim_begin_ns ? span.sim_end_ns - span.sim_begin_ns : 0;
    out += ", \"dur\": ";
    AppendMicros(out, dur);
  }
  out += ", \"pid\": " + std::to_string(span.node);
  out += ", \"tid\": ";
  AppendString(out, span.category.empty() ? std::string_view("dcdo")
                                          : std::string_view(span.category));
  out += ", \"args\": {";
  out += "\"span\": " + std::to_string(span.id);
  out += ", \"parent\": " + std::to_string(span.parent);
  out += ", \"root\": " + std::to_string(span.root);
  if (span.call_id != 0) {
    out += ", \"call_id\": " + std::to_string(span.call_id);
  }
  if (span.attempt != 0) {
    out += ", \"attempt\": " + std::to_string(span.attempt);
  }
  out += ", \"wall_ns\": " + std::to_string(span.wall_begin_ns);
  if (!instant && span.sim_end_ns < span.sim_begin_ns) {
    out += ", \"open\": true";
  }
  for (const auto& [key, value] : span.notes) {
    out += ", ";
    AppendString(out, key);
    out += ": ";
    AppendString(out, value);
  }
  out += "}}";
}

void AppendCounters(std::string& out, std::vector<CounterTotal> counters) {
  std::sort(counters.begin(), counters.end());
  out += ",\n\"dcdoMetrics\": {\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    first = false;
    AppendString(out, name);
    out += ": " + std::to_string(value);
  }
  out += "}}";
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<Span>& spans,
                              std::vector<CounterTotal> counters) {
  std::string out;
  out.reserve(spans.size() * 200 + 1024);
  out += "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  for (const Span& span : spans) {
    AppendEvent(out, span, first);
  }
  out += "\n]";
  AppendCounters(out, std::move(counters));
  out += "}\n";
  return out;
}

Status WriteChromeTrace(const SpanRecorder& spans, const std::string& path,
                        std::vector<CounterTotal> counters) {
  std::string json =
      ToChromeTraceJson(spans.SnapshotSpans(), std::move(counters));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InternalError("cannot open trace output file " + path);
  }
  file << json;
  // Flush before judging: a trace smaller than the stream buffer is still
  // unwritten after operator<<, and a failure in the destructor is lost.
  file.flush();
  if (!file.good()) {
    return InternalError("failed writing trace to " + path);
  }
  return Status::Ok();
}

}  // namespace dcdo::trace
