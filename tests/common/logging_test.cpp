#include "common/logging.h"

#include <gtest/gtest.h>

namespace dcdo {
namespace {

// Restores the process-wide level after each test.
class LoggingTest : public ::testing::Test {
 protected:
  LoggingTest() : saved_(GetLogLevel()) {}
  ~LoggingTest() override { SetLogLevel(saved_); }
  LogLevel saved_;
};

TEST_F(LoggingTest, LevelRoundTrips) {
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
}

TEST_F(LoggingTest, DefaultSuppressesInfo) {
  SetLogLevel(LogLevel::kWarning);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("costly");
  };
  // Suppressed: the level check comes first, so the operand is never
  // evaluated and no stream is built.
  DCDO_LOG(kDebug) << expensive();
  EXPECT_EQ(evaluations, 0) << "a suppressed line must not evaluate operands";
}

TEST_F(LoggingTest, EmittedLineEvaluatesEachOperandOnce) {
  SetLogLevel(LogLevel::kWarning);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("costly");
  };
  DCDO_LOG(kWarning) << "emitted: " << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LoggingTest, ExpandsSafelyInsideUnbracedIfElse) {
  SetLogLevel(LogLevel::kError);
  int branch = 0;
  // The macro must not capture the else: a dangling-else expansion would
  // attach it to the macro's own condition.
  for (bool take : {true, false}) {
    if (take)
      DCDO_LOG(kDebug) << "suppressed";
    else
      branch = 2;
  }
  EXPECT_EQ(branch, 2);
}

TEST_F(LoggingTest, ErrorAlwaysFormats) {
  SetLogLevel(LogLevel::kError);
  // Just exercising the emit path (output goes to stderr).
  DCDO_LOG(kError) << "test error line " << 42;
  SUCCEED();
}

}  // namespace
}  // namespace dcdo
