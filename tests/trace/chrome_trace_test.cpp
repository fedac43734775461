// Chrome trace-event export: JSON shape, escaping, metrics side-channel.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "instrument/chrome_trace.h"
#include "instrument/context.h"
#include "sim/simulation.h"

namespace dcdo::trace {
namespace {

Span MakeSpan(SpanId id, std::string name, std::int64_t begin_ns,
              std::int64_t end_ns) {
  Span span;
  span.id = id;
  span.root = id;
  span.name = std::move(name);
  span.sim_begin_ns = begin_ns;
  span.sim_end_ns = end_ns;
  return span;
}

TEST(ChromeTraceTest, IntervalBecomesCompleteEvent) {
  Span span = MakeSpan(1, "rpc.call", 1500, 4500);  // 1.5 µs .. 4.5 µs
  span.category = "client";
  span.node = 3;
  span.call_id = 42;
  span.attempt = 2;
  span.notes.emplace_back("outcome", "reply");

  std::string json = ToChromeTraceJson({span});
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"rpc.call\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 3.000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": \"client\""), std::string::npos);
  EXPECT_NE(json.find("\"call_id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"attempt\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"reply\""), std::string::npos);
}

TEST(ChromeTraceTest, InstantAndOpenSpans) {
  Span mark = MakeSpan(1, "rpc.timeout", 2000, 2000);
  mark.kind = Span::Kind::kInstant;
  Span open = MakeSpan(2, "rpc.call", 1000, -1);  // never closed

  std::string json = ToChromeTraceJson({mark, open});
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // The open interval exports with zero duration and an explicit flag.
  EXPECT_NE(json.find("\"dur\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"open\": true"), std::string::npos);
  // Empty category falls back to the "dcdo" lane.
  EXPECT_NE(json.find("\"tid\": \"dcdo\""), std::string::npos);
}

TEST(ChromeTraceTest, EscapesControlAndQuoteCharacters) {
  Span span = MakeSpan(1, "weird\"name", 0, 1);
  span.notes.emplace_back("note", "line1\nline2\ttab\\slash");
  std::string json = ToChromeTraceJson({span});
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(ChromeTraceTest, MetricsRideInSideChannel) {
  std::string json =
      ToChromeTraceJson({}, {{"rpc.dedup_hits", 3}, {"net.bytes_sent", 7}});
  EXPECT_NE(json.find("\"dcdoMetrics\": {\"counters\": "
                      "{\"net.bytes_sent\": 7, \"rpc.dedup_hits\": 3}}"),
            std::string::npos)
      << "counters are written sorted by name";
  EXPECT_EQ(json.find("histograms"), std::string::npos);
}

TEST(ChromeTraceTest, WriteChromeTraceRoundTrips) {
  sim::Simulation simulation;
  instrument::Context context({.tracing = true});
  context.AttachSimulation(&simulation);
  SpanRecorder& ctx = *context.spans();
  SpanId id = ctx.BeginSpan("rpc.call", {.category = "client"});
  ctx.EndSpan(id);

  std::string path = ::testing::TempDir() + "/dcdo_trace_test.json";
  ASSERT_TRUE(WriteChromeTrace(ctx, path, {{"rpc.calls_started", 1}}).ok());

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_NE(contents.str().find("\"rpc.call\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"rpc.calls_started\": 1"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ChromeTraceTest, WriteToUnwritablePathFails) {
  SpanRecorder ctx(/*max_spans=*/16);
  EXPECT_FALSE(WriteChromeTrace(ctx, "/nonexistent-dir/trace.json").ok());
}

// A device that accepts the open but fails every write: the small trace sits
// in the stream buffer until the flush, which must be judged too.
TEST(ChromeTraceTest, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  SpanRecorder ctx(/*max_spans=*/16);
  EXPECT_FALSE(WriteChromeTrace(ctx, "/dev/full").ok());
}

}  // namespace
}  // namespace dcdo::trace
