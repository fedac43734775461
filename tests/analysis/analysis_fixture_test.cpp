// Golden-output tests for the dcdo-tidy checks (DESIGN.md §12).
//
// Each check has a fixture pair under tests/analysis/fixtures/<check>/:
//   bug.cc    — a reduced reproduction of the real historical bug; the
//               check must fire on exactly the lines carrying an
//               `// expect: <check>` marker, and nowhere else.
//   fixed.cc  — the committed fix pattern(s); the check must stay silent.
//
// The expectations live in the fixtures themselves (the `// expect:`
// markers), so adding a case means editing one file. The tests drive the
// dcdo-analyze engine binary.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

#ifndef DCDO_ANALYZE_BIN
#error "build must define DCDO_ANALYZE_BIN"
#endif
#ifndef DCDO_TIDY_FIXTURE_DIR
#error "build must define DCDO_TIDY_FIXTURE_DIR"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunAnalyzer(const std::string& args) {
  std::string command = std::string(DCDO_ANALYZE_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

// (line, check) pairs expected from the `// expect:` markers in `path`.
std::set<std::pair<int, std::string>> ParseExpectations(
    const std::string& path) {
  std::set<std::pair<int, std::string>> expected;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t at = line.find("// expect:");
    if (at == std::string::npos) continue;
    std::stringstream names(line.substr(at + 10));
    std::string name;
    while (std::getline(names, name, ',')) {
      std::size_t begin = name.find_first_not_of(" \t");
      std::size_t end = name.find_last_not_of(" \t");
      if (begin == std::string::npos) continue;
      expected.emplace(lineno, name.substr(begin, end - begin + 1));
    }
  }
  return expected;
}

// (line, check) pairs from analyzer output lines
// `path:line:col: warning: msg [check]`.
std::set<std::pair<int, std::string>> ParseFindings(
    const std::string& output) {
  std::set<std::pair<int, std::string>> found;
  std::stringstream ss(output);
  std::string line;
  while (std::getline(ss, line)) {
    std::size_t warn = line.find(": warning: ");
    std::size_t open = line.rfind(" [");
    if (warn == std::string::npos || open == std::string::npos ||
        line.back() != ']') {
      continue;
    }
    std::string check = line.substr(open + 2, line.size() - open - 3);
    // path:LINE:col — line number is between the first and second ':'
    // after the path; scan from the warning marker backwards.
    std::size_t col_colon = line.rfind(':', warn - 1);
    if (col_colon == std::string::npos) continue;
    std::size_t line_colon = line.rfind(':', col_colon - 1);
    if (line_colon == std::string::npos) continue;
    int lineno =
        std::stoi(line.substr(line_colon + 1, col_colon - line_colon - 1));
    found.emplace(lineno, check);
  }
  return found;
}

std::string FixturePath(const std::string& check, const std::string& leaf) {
  return std::string(DCDO_TIDY_FIXTURE_DIR) + "/" + check + "/" + leaf;
}

class CheckFixtureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckFixtureTest, FiresOnReducedHistoricalBug) {
  const std::string check = GetParam();
  const std::string bug = FixturePath(check, "bug.cc");
  RunResult run = RunAnalyzer("--checks=" + check + " " + bug);
  EXPECT_EQ(run.exit_code, 1) << run.output;

  auto expected = ParseExpectations(bug);
  ASSERT_FALSE(expected.empty())
      << "fixture " << bug << " has no // expect: markers";
  EXPECT_EQ(ParseFindings(run.output), expected) << run.output;
}

TEST_P(CheckFixtureTest, SilentOnCommittedFix) {
  const std::string check = GetParam();
  const std::string fixed = FixturePath(check, "fixed.cc");
  RunResult run = RunAnalyzer("--checks=" + check + " " + fixed);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(ParseFindings(run.output).empty()) << run.output;
}

// Running EVERY check over a fixed fixture must stay silent too — a fix
// for one bug class must not trip a sibling check.
TEST_P(CheckFixtureTest, FixIsCleanUnderAllChecks) {
  const std::string fixed = FixturePath(GetParam(), "fixed.cc");
  RunResult run = RunAnalyzer(fixed);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, CheckFixtureTest,
    ::testing::Values("dcdo-mutable-nonatomic-in-const",
                      "dcdo-unordered-iteration-schedules",
                      "dcdo-wallclock-in-sim", "dcdo-status-discard",
                      "dcdo-deferred-ref-capture",
                      "dcdo-continuation-chain"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(AnalyzerDriverTest, ListChecksNamesAllSix) {
  RunResult run = RunAnalyzer("--list-checks");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* check :
       {"dcdo-mutable-nonatomic-in-const",
        "dcdo-unordered-iteration-schedules", "dcdo-wallclock-in-sim",
        "dcdo-status-discard", "dcdo-deferred-ref-capture",
        "dcdo-continuation-chain"}) {
    EXPECT_NE(run.output.find(check), std::string::npos) << run.output;
  }
}

TEST(AnalyzerDriverTest, NolintSuppressesAndBaselineSuppresses) {
  const std::string bug =
      FixturePath("dcdo-wallclock-in-sim", "bug.cc");

  // Baseline written from the current findings silences the run.
  std::string baseline = ::testing::TempDir() + "/dcdo_tidy_baseline.txt";
  RunResult write =
      RunAnalyzer("--checks=dcdo-wallclock-in-sim --write-baseline=" +
                  baseline + " " + bug);
  EXPECT_EQ(write.exit_code, 0) << write.output;
  RunResult masked = RunAnalyzer("--checks=dcdo-wallclock-in-sim --baseline=" +
                                 baseline + " " + bug);
  EXPECT_EQ(masked.exit_code, 0) << masked.output;
  EXPECT_TRUE(ParseFindings(masked.output).empty()) << masked.output;
}

TEST(AnalyzerDriverTest, WallclockAllowlistSilencesTraceStylePaths) {
  const std::string bug = FixturePath("dcdo-wallclock-in-sim", "bug.cc");
  RunResult run = RunAnalyzer(
      "--checks=dcdo-wallclock-in-sim --allow-wallclock=" +
      std::string(DCDO_TIDY_FIXTURE_DIR) + " " + bug);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(AnalyzerDriverTest, UnknownCheckIsAUsageError) {
  RunResult run = RunAnalyzer("--checks=dcdo-no-such-check /dev/null");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
