// Per-invariant tests: each shipped invariant has at least one test that
// constructs its violation (via synthetic probes or a real runtime scenario)
// and one that shows the legal counterpart stays silent.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "component/ico.h"
#include "core/dcdo.h"
#include "instrument/context.h"
#include "runtime/fom.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

using check::CacheEntrySnapshot;
using check::Checker;
using check::NetworkCounters;
using check::ObjectStatusSnapshot;
using check::Severity;

// ===== Synthetic-probe tests: a standalone (uninstalled) checker fed by
// probes the test controls, so each invariant can be violated in isolation.

class SyntheticInvariantTest : public ::testing::Test {
 protected:
  // Registers an object whose probe reports the test-controlled fields.
  void RegisterSyntheticObject() {
    ctx_.RegisterObject(object_, [this] {
      ObjectStatusSnapshot s;
      s.version = live_version_;
      s.components = components_;
      s.total_active_threads = active_threads_;
      s.config_anomalies = anomalies_;
      return s;
    });
  }

  // Facts go through the context (`facts_`), state and verdicts through its
  // checker (`ctx_`).
  instrument::Context facts_{{.checking = true}};
  Checker& ctx_ = *facts_.checker();
  ObjectId object_ = ObjectId::Next(domains::kInstance);
  ObjectId comp_a_ = ObjectId::Next(domains::kComponent);
  ObjectId comp_b_ = ObjectId::Next(domains::kComponent);
  VersionId live_version_ = VersionId::Root();
  std::vector<ObjectId> components_;
  int active_threads_ = 0;
  std::vector<std::string> anomalies_;
};

TEST_F(SyntheticInvariantTest, CatalogueShipsSevenInvariants) {
  EXPECT_EQ(ctx_.invariants().size(), 7u);
  for (const char* name :
       {"version-monotonic", "single-evolution", "dfm-no-dangling",
        "dfm-integrity", "thread-accounting", "binding-coherence",
        "message-conservation"}) {
    bool found = false;
    for (const check::Invariant& inv : ctx_.invariants()) {
      if (inv.name == name) {
        found = true;
        EXPECT_FALSE(inv.layer.empty()) << name;
        EXPECT_FALSE(inv.paper.empty()) << name << " cites no paper passage";
      }
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST_F(SyntheticInvariantTest, VersionMonotonicFlagsUninstrumentedChange) {
  RegisterSyntheticObject();
  ctx_.Evaluate();
  EXPECT_TRUE(ctx_.diagnostics().Clean());

  // The version moves with no committed evolution: not a legal one.
  live_version_ = VersionId::Root().Child(1);
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("version-monotonic"), 1u);
  EXPECT_EQ(ctx_.diagnostics().For("version-monotonic")[0]->severity,
            Severity::kError);

  // Re-evaluation does not duplicate the report.
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("version-monotonic"), 1u);
}

TEST_F(SyntheticInvariantTest, VersionMonotonicAcceptsInstrumentedChange) {
  RegisterSyntheticObject();
  // The committed evolution and the live state advance together, as a real
  // evolution does.
  facts_.EvolveBegin(object_, "obj", 0, live_version_,
                     VersionId::Root().Child(1));
  facts_.EvolveEnd(object_, 0, live_version_, VersionId::Root().Child(1),
                   Status::Ok());
  live_version_ = VersionId::Root().Child(1);
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("version-monotonic"), 0u);

  VersionId recorded;
  ASSERT_TRUE(ctx_.RecordedVersion(object_, &recorded));
  EXPECT_EQ(recorded, VersionId::Root().Child(1));
}

TEST_F(SyntheticInvariantTest, DfmIntegrityReportsProbeAnomalies) {
  RegisterSyntheticObject();
  anomalies_ = {"function 'f' has 2 enabled implementations"};
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("dfm-integrity"), 1u);
  const check::Diagnostic& d = *ctx_.diagnostics().For("dfm-integrity")[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.message, anomalies_[0]);

  anomalies_.clear();
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("dfm-integrity"), 1u);
}

TEST_F(SyntheticInvariantTest, ThreadAccountingFlagsLedgerMismatch) {
  RegisterSyntheticObject();
  // The mapper claims a live thread the checker never saw start.
  active_threads_ = 1;
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("thread-accounting"), 1u);
  EXPECT_EQ(ctx_.diagnostics().For("thread-accounting")[0]->severity,
            Severity::kError);
}

TEST_F(SyntheticInvariantTest, ThreadAccountingAcceptsBalancedLedger) {
  components_ = {comp_a_};
  RegisterSyntheticObject();
  facts_.CallStart(object_, "f", comp_a_);
  active_threads_ = 1;
  ctx_.Evaluate();
  facts_.CallEnd(object_, "f", comp_a_);
  active_threads_ = 0;
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("thread-accounting"), 0u);
  EXPECT_TRUE(ctx_.diagnostics().Clean());
}

TEST_F(SyntheticInvariantTest, DanglingCallWithoutRemovalIsError) {
  components_ = {comp_a_};
  RegisterSyntheticObject();
  // The in-flight call claims a component the DFM never listed and no
  // instrumented removal retired: truly dangling state.
  facts_.CallStart(object_, "f", comp_b_);
  active_threads_ = 1;
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("dfm-no-dangling"), 1u);
  const check::Diagnostic& d = *ctx_.diagnostics().For("dfm-no-dangling")[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("no instrumented removal"), std::string::npos);
}

TEST_F(SyntheticInvariantTest, DanglingCallAfterInstrumentedRemovalWarns) {
  components_ = {comp_a_};
  RegisterSyntheticObject();
  facts_.CallStart(object_, "f", comp_a_);
  active_threads_ = 1;
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("dfm-no-dangling"), 0u);

  // The component is retired through the fact while the call runs: the
  // paper-legal "thread proceeds inside a deactivated function" overlap.
  // The mapper's entries (and their thread counts) go with the component.
  facts_.ComponentRemoved(object_, comp_a_, /*forced=*/false);
  components_.clear();
  active_threads_ = 0;
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("dfm-no-dangling"), 1u);
  EXPECT_EQ(ctx_.diagnostics().For("dfm-no-dangling")[0]->severity,
            Severity::kWarning);
  EXPECT_TRUE(ctx_.diagnostics().Clean());
}

TEST_F(SyntheticInvariantTest, BindingCoherenceFlagsNeverLiveAddress) {
  ctx_.SetEndpointLiveness(
      [](std::uint32_t, std::uint64_t, std::uint64_t) { return false; });
  ctx_.RegisterBindingCache([this] {
    return std::vector<CacheEntrySnapshot>{{object_, 9, 9, 9}};
  });
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("binding-coherence"), 1u);
  EXPECT_EQ(ctx_.diagnostics().For("binding-coherence")[0]->severity,
            Severity::kError);
}

TEST_F(SyntheticInvariantTest, BindingCoherenceAcceptsRetiredAddress) {
  ctx_.SetEndpointLiveness(
      [](std::uint32_t, std::uint64_t, std::uint64_t) { return false; });
  ctx_.RegisterBindingCache([this] {
    return std::vector<CacheEntrySnapshot>{{object_, 9, 9, 9}};
  });
  // The address was once a live activation and has been closed: the
  // stale-binding fault protocol will repair the cache on next use.
  facts_.EndpointOpened(9, 9, 9);
  facts_.EndpointClosed(9, 9);
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("binding-coherence"), 0u);
}

TEST_F(SyntheticInvariantTest, BindingRefreshOntoDeadAddressReportsAtOnce) {
  ctx_.SetEndpointLiveness(
      [](std::uint32_t, std::uint64_t, std::uint64_t) { return false; });
  // No Evaluate needed: the refresh fact reports the incoherence directly.
  facts_.BindingRefreshed(4, object_, 1, 2, 3);
  ASSERT_EQ(ctx_.diagnostics().CountFor("binding-coherence"), 1u);
  EXPECT_NE(ctx_.diagnostics().For("binding-coherence")[0]->message.find(
                "binding refresh"),
            std::string::npos);
}

TEST_F(SyntheticInvariantTest, MessageConservationFlagsImbalance) {
  NetworkCounters counters{.sent = 5, .delivered = 3, .dropped_in_flight = 1,
                           .in_flight = 0};
  ctx_.SetNetworkProbe([&] { return counters; });
  ctx_.Evaluate();
  ASSERT_EQ(ctx_.diagnostics().CountFor("message-conservation"), 1u);
  EXPECT_NE(ctx_.diagnostics().For("message-conservation")[0]->message.find(
                "sent=5"),
            std::string::npos);
}

TEST_F(SyntheticInvariantTest, MessageConservationQuiescenceOnlyAtEnd) {
  // Balanced but with traffic still queued: legal mid-run, an error once the
  // simulator goes idle for good.
  NetworkCounters counters{.sent = 4, .delivered = 2, .dropped_in_flight = 1,
                           .in_flight = 1};
  ctx_.SetNetworkProbe([&] { return counters; });
  ctx_.Evaluate();
  EXPECT_EQ(ctx_.diagnostics().CountFor("message-conservation"), 0u);
  ctx_.EvaluateAtEnd();
  ASSERT_EQ(ctx_.diagnostics().CountFor("message-conservation"), 1u);
  EXPECT_NE(ctx_.diagnostics().For("message-conservation")[0]->message.find(
                "still in flight"),
            std::string::npos);
}

TEST_F(SyntheticInvariantTest, SingleEvolutionFlagsOverlapTwice) {
  RegisterSyntheticObject();
  facts_.EvolveBegin(object_, "obj", 0, VersionId::Root(),
                     VersionId::Root().Child(1));
  facts_.EvolveBegin(object_, "obj", 0, VersionId::Root(),
                     VersionId::Root().Child(2));
  ctx_.Evaluate();
  // Once from the race detector at the second begin, once from the
  // steady-state invariant restatement.
  EXPECT_EQ(ctx_.diagnostics().CountFor("single-evolution"), 2u);
}

TEST_F(SyntheticInvariantTest, ReportDedupesIdenticalDiagnostics) {
  check::Diagnostic d;
  d.severity = Severity::kError;
  d.invariant = "custom";
  d.object = object_;
  d.message = "same message";
  ctx_.Report(d);
  ctx_.Report(d);
  EXPECT_EQ(ctx_.diagnostics().CountFor("custom"), 1u);
}

TEST_F(SyntheticInvariantTest, CustomInvariantsJoinTheEvaluationLoop) {
  int runs = 0;
  ctx_.RegisterInvariant(
      {"test-custom", "test", "n/a", [&](Checker&) { ++runs; }});
  std::uint64_t before = ctx_.evaluations();
  ctx_.Evaluate();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ctx_.evaluations(), before + 1);
}

// ===== Real-runtime tests: a checked testbed with live objects, exercising
// the instrumentation wired through Dcdo / DFM / transport.

// A Fom that enters one phase and parks: on a timer it arms, or on a child
// completion that nothing will ever send.
class ParkedFom final : public runtime::Fom {
 public:
  explicit ParkedFom(bool arm_timer)
      : Fom("test.parked"), arm_timer_(arm_timer) {}

  runtime::FomStatus Tick() override {
    if (phase() >= 0) return runtime::FomStatus::kDone;
    EnterPhase(0, "waiting");
    if (!arm_timer_) return WaitOn(runtime::WakeSource::kChild);
    scheduler().ArmTimer(*this, sim::SimDuration::Millis(5));
    return WaitOn(runtime::WakeSource::kTimer);
  }

 private:
  bool arm_timer_;
};

class CheckedRuntimeTest : public ::testing::Test {
 protected:
  CheckedRuntimeTest() {
    comp_a_ = testing::MakeEchoComponent(testbed_.registry(), "libA", {"f"});
    comp_b_ = testing::MakeEchoComponent(testbed_.registry(), "libB", {"f"});
    ico_a_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_a_);
    ico_b_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_b_);
    icos_.Register(ico_a_.get());
    icos_.Register(ico_b_.get());
    object_ = std::make_unique<Dcdo>("obj", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
  }

  Status IncorporateBlocking(const ObjectId& component) {
    std::optional<Status> out;
    object_->IncorporateComponent(component,
                                  [&](Status status) { out = status; });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("incorporate never completed"));
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  std::unique_ptr<ImplementationComponentObject> ico_a_;
  std::unique_ptr<ImplementationComponentObject> ico_b_;
  std::unique_ptr<Dcdo> object_;
};

TEST_F(CheckedRuntimeTest, CleanLifecycleLeavesNoDiagnostics) {
  Checker* checker = testbed_.checker();
  ASSERT_NE(checker, nullptr);

  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  auto result = object_->Call("f", ByteBuffer::FromString("x"));
  ASSERT_TRUE(result.ok());

  // Evolve to a child version that swaps libA for libB.
  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_b_.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());
  std::optional<Status> evolved;
  object_->EvolveTo(target, Dcdo::RemovalPolicy::Delay(),
                    [&](Status status) { evolved = status; });
  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved->ok()) << *evolved;
  EXPECT_EQ(object_->version(), VersionId::Root().Child(1));

  testbed_.RunAll();  // drain trailing traffic before the quiescence check
  checker->EvaluateAtEnd();
  EXPECT_GT(checker->evaluations(), 0u);
  EXPECT_TRUE(checker->diagnostics().Clean())
      << checker->diagnostics().DumpText();
  EXPECT_EQ(checker->diagnostics().CountFor("race-forced-removal"), 0u);
  EXPECT_EQ(checker->diagnostics().CountFor("race-overlapping-evolution"), 0u);

  // The checker followed the evolution: its causal record matches the live
  // version, which is exactly why version-monotonic stayed silent.
  VersionId recorded;
  ASSERT_TRUE(checker->RecordedVersion(object_->id(), &recorded));
  EXPECT_EQ(recorded, VersionId::Root().Child(1));
}

// operations-complete, the invariant a checked testbed adds over its Fom
// scheduler: once the event queue drains, a Fom still parked will never be
// woken, and the checker names it and its phase.
TEST_F(CheckedRuntimeTest, OperationsCompleteFlagsAFomNothingWillWake) {
  Checker* checker = testbed_.checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_EQ(checker->invariants().size(), 8u);
  EXPECT_EQ(checker->invariants().back().name, "operations-complete");
  runtime::FomScheduler& scheduler =
      runtime::FomScheduler::For(testbed_.simulation());
  scheduler.Launch<ParkedFom>(/*arm_timer=*/false);
  // One unrelated event; the checker evaluates after it, queue empty.
  testbed_.simulation().Schedule(sim::SimDuration::Millis(1), [] {});
  testbed_.RunAll();
  ASSERT_EQ(checker->diagnostics().CountFor("operations-complete"), 1u);
  const check::Diagnostic& lost =
      *checker->diagnostics().For("operations-complete")[0];
  EXPECT_EQ(lost.severity, Severity::kError);
  EXPECT_NE(lost.message.find("test.parked"), std::string::npos)
      << lost.message;
  EXPECT_NE(lost.message.find("'waiting'"), std::string::npos)
      << lost.message;
  EXPECT_EQ(scheduler.live_count(), 1u);
}

TEST_F(CheckedRuntimeTest, OperationsCompleteAcceptsAFomThatFinishes) {
  Checker* checker = testbed_.checker();
  ASSERT_NE(checker, nullptr);
  runtime::FomScheduler& scheduler =
      runtime::FomScheduler::For(testbed_.simulation());
  scheduler.Launch<ParkedFom>(/*arm_timer=*/true);
  testbed_.RunAll();
  checker->EvaluateAtEnd();
  EXPECT_EQ(checker->diagnostics().CountFor("operations-complete"), 0u)
      << checker->diagnostics().DumpText();
  EXPECT_EQ(scheduler.live_count(), 0u);
}

TEST_F(CheckedRuntimeTest, ForcedRemovalUnderParkedCallIsDetected) {
  Checker* checker = testbed_.checker();
  ASSERT_NE(checker, nullptr);

  // A body that parks for 2 s on an outcall, leaving its thread live inside
  // the component.
  testbed_.registry().Register(
      "app/F1", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer::FromString("survived"));
      });
  auto comp = ComponentBuilder("app").AddFunction("F1", "b(b)", "app/F1")
                  .Build();
  ASSERT_TRUE(comp.ok());
  testbed_.host(1)->CacheComponent(comp->id, comp->code_bytes);
  ASSERT_TRUE(object_->IncorporateCached(*comp).ok());
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());

  // While the call is parked, the component is ripped out with kForce.
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    EXPECT_TRUE(
        object_->RemoveComponent(comp->id, ActiveThreadPolicy::kForce).ok());
  });
  auto result = object_->Call("F1", ByteBuffer{});
  ASSERT_TRUE(result.ok());

  // The removal did not happen-after the invocation end: an error-level race.
  ASSERT_EQ(checker->diagnostics().CountFor("race-forced-removal"), 1u);
  EXPECT_EQ(checker->diagnostics().For("race-forced-removal")[0]->severity,
            Severity::kError);
  // The parked call kept executing inside the retired component; the
  // per-event evaluation saw it as a (paper-legal, explained) dangling call.
  ASSERT_GE(checker->diagnostics().CountFor("dfm-no-dangling"), 1u);
  EXPECT_EQ(checker->diagnostics().For("dfm-no-dangling")[0]->severity,
            Severity::kWarning);
}

}  // namespace
}  // namespace dcdo
