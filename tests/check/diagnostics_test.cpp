#include "instrument/diagnostics.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/object_id.h"
#include "common/version_id.h"
#include "sim/sim_time.h"

namespace dcdo::check {
namespace {

Diagnostic Make(Severity severity, const std::string& invariant,
                const std::string& message) {
  Diagnostic d;
  d.severity = severity;
  d.invariant = invariant;
  d.message = message;
  return d;
}

TEST(SeverityNameTest, CoversAllLevels) {
  EXPECT_EQ(SeverityName(Severity::kInfo), "info");
  EXPECT_EQ(SeverityName(Severity::kWarning), "warning");
  EXPECT_EQ(SeverityName(Severity::kError), "error");
}

TEST(DiagnosticTest, ToStringCarriesAllFields) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.invariant = "version-monotonic";
  d.message = "went backwards";
  d.time = sim::SimTime::FromNanos(1'250'000'000);
  d.event_id = 42;
  d.object = ObjectId(3, 7);
  d.version = VersionId{1, 2};

  std::string text = d.ToString();
  EXPECT_NE(text.find("[error]"), std::string::npos) << text;
  EXPECT_NE(text.find("t=1.25s"), std::string::npos) << text;
  EXPECT_NE(text.find("ev=42"), std::string::npos) << text;
  EXPECT_NE(text.find("version-monotonic"), std::string::npos) << text;
  EXPECT_NE(text.find("v=1.2"), std::string::npos) << text;
  EXPECT_NE(text.find("went backwards"), std::string::npos) << text;
}

TEST(DiagnosticTest, ToStringOmitsNilObjectAndInvalidVersion) {
  Diagnostic d = Make(Severity::kWarning, "message-conservation", "m");
  std::string text = d.ToString();
  EXPECT_EQ(text.find(" obj="), std::string::npos) << text;
  EXPECT_EQ(text.find(" v="), std::string::npos) << text;
}

TEST(DiagnosticTest, ToJsonEscapesAndKeepsAllKeys) {
  Diagnostic d = Make(Severity::kError, "dfm-integrity",
                      "quote \" backslash \\ newline \n done");
  d.time = sim::SimTime::FromNanos(500);
  d.event_id = 7;

  std::string json = d.ToJson();
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"invariant\":\"dfm-integrity\""), std::string::npos);
  EXPECT_NE(json.find("\"time_ns\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\\"), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  // The raw control characters must not survive into the JSON.
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
}

TEST(DiagnosticsTest, CountsBySeverity) {
  Diagnostics sink;
  sink.Record(Make(Severity::kInfo, "coordinator", "batch applied"));
  sink.Record(Make(Severity::kWarning, "race-unquiesced-swap", "w"));
  sink.Record(Make(Severity::kError, "thread-accounting", "e1"));
  sink.Record(Make(Severity::kError, "thread-accounting", "e2"));

  EXPECT_EQ(sink.count(), 4u);
  EXPECT_EQ(sink.errors(), 2u);
  EXPECT_EQ(sink.warnings(), 1u);
  EXPECT_FALSE(sink.Clean());
}

TEST(DiagnosticsTest, CleanIgnoresInfoAndWarnings) {
  Diagnostics sink;
  EXPECT_TRUE(sink.Clean());
  sink.Record(Make(Severity::kInfo, "coordinator", "note"));
  sink.Record(Make(Severity::kWarning, "race-overlapping-evolution", "w"));
  EXPECT_TRUE(sink.Clean());
  sink.Record(Make(Severity::kError, "binding-coherence", "e"));
  EXPECT_FALSE(sink.Clean());
}

TEST(DiagnosticsTest, ForFiltersByInvariant) {
  Diagnostics sink;
  sink.Record(Make(Severity::kError, "a", "1"));
  sink.Record(Make(Severity::kError, "b", "2"));
  sink.Record(Make(Severity::kError, "a", "3"));

  EXPECT_EQ(sink.CountFor("a"), 2u);
  EXPECT_EQ(sink.CountFor("b"), 1u);
  EXPECT_EQ(sink.CountFor("missing"), 0u);
  auto entries = sink.For("a");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0]->message, "1");
  EXPECT_EQ(entries[1]->message, "3");
}

TEST(DiagnosticsTest, DumpTextOneLinePerEntry) {
  Diagnostics sink;
  sink.Record(Make(Severity::kError, "a", "first"));
  sink.Record(Make(Severity::kWarning, "b", "second"));
  std::string text = sink.DumpText();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_LT(text.find("first"), text.find("second"));
}

TEST(DiagnosticsTest, DumpJsonIsAnArray) {
  Diagnostics sink;
  EXPECT_EQ(sink.DumpJson(), "[]");
  sink.Record(Make(Severity::kError, "a", "1"));
  sink.Record(Make(Severity::kError, "b", "2"));
  std::string json = sink.DumpJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
  EXPECT_NE(json.find("},{"), std::string::npos) << json;
}

TEST(DiagnosticsTest, ClearEmptiesTheSink) {
  Diagnostics sink;
  sink.Record(Make(Severity::kError, "a", "1"));
  sink.Clear();
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_TRUE(sink.Clean());
}

}  // namespace
}  // namespace dcdo::check
