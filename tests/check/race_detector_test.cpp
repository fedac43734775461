// Direct unit tests of the logical race detector: each ledger, each
// diagnostic it can produce, and the happens-before bookkeeping behind them.
#include "instrument/race_detector.h"

#include <gtest/gtest.h>

#include "instrument/diagnostics.h"

namespace dcdo::check {
namespace {

class RaceDetectorTest : public ::testing::Test {
 protected:
  Stamp Next() {
    Stamp stamp;
    stamp.time = sim::SimTime::FromNanos(static_cast<std::int64_t>(lamport_));
    stamp.event_id = lamport_;
    stamp.lamport = ++lamport_;
    return stamp;
  }

  Diagnostics sink_;
  RaceDetector detector_{&sink_};
  ObjectId object_ = ObjectId::Next(domains::kInstance);
  ObjectId comp_a_ = ObjectId::Next(domains::kComponent);
  ObjectId comp_b_ = ObjectId::Next(domains::kComponent);
  std::uint64_t lamport_ = 0;
};

TEST_F(RaceDetectorTest, CallLedgerBalances) {
  EXPECT_EQ(detector_.InFlightCalls(object_), 0);
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnCallStart(object_, "g", comp_a_, Next());
  EXPECT_EQ(detector_.InFlightCalls(object_), 2);
  detector_.OnCallEnd(object_, "g", comp_a_, Next());
  detector_.OnCallEnd(object_, "f", comp_a_, Next());
  EXPECT_EQ(detector_.InFlightCalls(object_), 0);
  EXPECT_TRUE(sink_.Clean());
  EXPECT_EQ(sink_.count(), 0u);
}

TEST_F(RaceDetectorTest, NestedCallsCloseLifo) {
  // Two in-flight records of the same (object, function, component): the end
  // closes the most recent one, leaving the outer call's record intact.
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnCallEnd(object_, "f", comp_a_, Next());
  ASSERT_EQ(detector_.in_flight().size(), 1u);
  EXPECT_EQ(detector_.in_flight()[0].token, 1u) << "outer record survives";
}

TEST_F(RaceDetectorTest, ForcedRemovalOverLiveCallIsError) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnComponentRemoved(object_, comp_a_, /*forced=*/true, Next());

  ASSERT_EQ(sink_.CountFor("race-forced-removal"), 1u);
  const Diagnostic& d = *sink_.For("race-forced-removal")[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.object, object_);
  EXPECT_NE(d.message.find("forced"), std::string::npos) << d.message;
  EXPECT_TRUE(detector_.WasRetired(object_, comp_a_));
}

TEST_F(RaceDetectorTest, UnforcedRemovalOverLiveCallIsWarning) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnComponentRemoved(object_, comp_a_, /*forced=*/false, Next());

  ASSERT_EQ(sink_.CountFor("race-forced-removal"), 1u);
  EXPECT_EQ(sink_.For("race-forced-removal")[0]->severity,
            Severity::kWarning);
  EXPECT_TRUE(sink_.Clean());
}

TEST_F(RaceDetectorTest, RemovalWithNoLiveCallsIsSilent) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnCallEnd(object_, "f", comp_a_, Next());
  detector_.OnComponentRemoved(object_, comp_a_, /*forced=*/true, Next());
  EXPECT_EQ(sink_.count(), 0u) << "removal happens-after the invocation end";
  EXPECT_TRUE(detector_.WasRetired(object_, comp_a_));
}

TEST_F(RaceDetectorTest, RemovalOfOtherComponentDoesNotFlagCall) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnComponentRemoved(object_, comp_b_, /*forced=*/true, Next());
  EXPECT_EQ(sink_.CountFor("race-forced-removal"), 0u);
}

TEST_F(RaceDetectorTest, UnquiescedSwapWarns) {
  detector_.OnImplSwapped(object_, "f", comp_a_, comp_b_,
                          /*active_on_from=*/2, Next());
  ASSERT_EQ(sink_.CountFor("race-unquiesced-swap"), 1u);
  const Diagnostic& d = *sink_.For("race-unquiesced-swap")[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("2 thread(s)"), std::string::npos) << d.message;
}

TEST_F(RaceDetectorTest, QuiescedSwapIsSilent) {
  detector_.OnImplSwapped(object_, "f", comp_a_, comp_b_,
                          /*active_on_from=*/0, Next());
  EXPECT_EQ(sink_.count(), 0u);
}

TEST_F(RaceDetectorTest, SecondEvolveBeginIsError) {
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(1), Next());
  EXPECT_EQ(detector_.OpenEvolutions(object_), 1);
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(2), Next());

  EXPECT_EQ(detector_.OpenEvolutions(object_), 2);
  ASSERT_EQ(sink_.CountFor("single-evolution"), 1u);
  const Diagnostic& d = *sink_.For("single-evolution")[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.version, VersionId::Root().Child(2));
  EXPECT_NE(d.message.find("still in flight"), std::string::npos);
}

TEST_F(RaceDetectorTest, EvolveEndClosesWindows) {
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(1), Next());
  detector_.OnEvolveEnd(object_, /*ok=*/true, Next());
  EXPECT_EQ(detector_.OpenEvolutions(object_), 0);
  // A fresh evolution after a clean end is not an overlap.
  detector_.OnEvolveBegin(object_, VersionId::Root().Child(1),
                          VersionId::Root().Child(2), Next());
  EXPECT_EQ(sink_.CountFor("single-evolution"), 0u);
}

TEST_F(RaceDetectorTest, CommitOverPreexistingCallWarns) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(1), Next());
  detector_.OnVersionChanged(object_, VersionId::Root(),
                             VersionId::Root().Child(1), Next());

  ASSERT_EQ(sink_.CountFor("race-overlapping-evolution"), 1u);
  const Diagnostic& d = *sink_.For("race-overlapping-evolution")[0];
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.version, VersionId::Root().Child(1));
  EXPECT_NE(d.message.find("'f'"), std::string::npos) << d.message;
}

TEST_F(RaceDetectorTest, CommitIgnoresCallsStartedAfterEvolveBegin) {
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(1), Next());
  // This call happens-after the evolution began; it is not an overlapped
  // invocation epoch.
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnVersionChanged(object_, VersionId::Root(),
                             VersionId::Root().Child(1), Next());
  EXPECT_EQ(sink_.CountFor("race-overlapping-evolution"), 0u);
}

TEST_F(RaceDetectorTest, CommitIgnoresCallsThatAlreadyEnded) {
  detector_.OnCallStart(object_, "f", comp_a_, Next());
  detector_.OnEvolveBegin(object_, VersionId::Root(),
                          VersionId::Root().Child(1), Next());
  detector_.OnCallEnd(object_, "f", comp_a_, Next());
  detector_.OnVersionChanged(object_, VersionId::Root(),
                             VersionId::Root().Child(1), Next());
  EXPECT_EQ(sink_.CountFor("race-overlapping-evolution"), 0u)
      << "the commit happens-after the invocation ended";
}

TEST_F(RaceDetectorTest, FirstReportDedupes) {
  EXPECT_TRUE(detector_.FirstReport("key-1"));
  EXPECT_FALSE(detector_.FirstReport("key-1"));
  EXPECT_TRUE(detector_.FirstReport("key-2"));
}

}  // namespace
}  // namespace dcdo::check
