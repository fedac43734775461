// Satellite regression test for the static/dynamic race-detection overlap:
// the reduced `lookups_served_`-style mutable-counter race in
// fixtures/mutable-race/racy_service.h is flagged BOTH ways —
//
//   * statically: dcdo-analyze's dcdo-mutable-nonatomic-in-const fires on
//     the header in every build mode;
//   * dynamically: the compiled analysis_race_fixture binary races for
//     real, and under the `tsan` preset (DCDO_SANITIZE=thread)
//     ThreadSanitizer reports the data race and fails the process. In
//     non-TSan builds the fixture exits cleanly (the race is benign-looking
//     there — which is exactly why the static check earns its keep).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

#ifndef DCDO_ANALYZE_BIN
#error "build must define DCDO_ANALYZE_BIN"
#endif
#ifndef DCDO_RACE_FIXTURE_BIN
#error "build must define DCDO_RACE_FIXTURE_BIN"
#endif
#ifndef DCDO_TIDY_FIXTURE_DIR
#error "build must define DCDO_TIDY_FIXTURE_DIR"
#endif

#if defined(__SANITIZE_THREAD__)
constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsanBuild = true;
#else
constexpr bool kTsanBuild = false;
#endif
#else
constexpr bool kTsanBuild = false;
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(TsanInterplayTest, StaticCheckFlagsTheRacyFixture) {
  const std::string header =
      std::string(DCDO_TIDY_FIXTURE_DIR) + "/mutable-race/racy_service.h";
  RunResult run = RunCommand(
      std::string(DCDO_ANALYZE_BIN) +
      " --checks=dcdo-mutable-nonatomic-in-const " + header);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("lookups_served_"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("dcdo-mutable-nonatomic-in-const"),
            std::string::npos)
      << run.output;
}

TEST(TsanInterplayTest, DynamicDetectorFlagsTheSameRaceUnderTsan) {
  // exitcode=66 makes a TSan report unambiguous against ordinary failures.
  RunResult run = RunCommand(
      "env TSAN_OPTIONS=\"exitcode=66 halt_on_error=1\" " +
      std::string(DCDO_RACE_FIXTURE_BIN));
  if (kTsanBuild) {
    EXPECT_EQ(run.exit_code, 66)
        << "expected ThreadSanitizer to flag the mutable-counter race\n"
        << run.output;
    EXPECT_NE(run.output.find("ThreadSanitizer"), std::string::npos)
        << run.output;
  } else {
    // Without TSan the racy fixture runs to completion: the bug class is
    // invisible at runtime in normal builds, so only the static check and
    // the tsan preset stand between it and production.
    EXPECT_EQ(run.exit_code, 0) << run.output;
  }
}

}  // namespace
