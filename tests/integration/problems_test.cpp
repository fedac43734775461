// End-to-end reproductions of the four problem classes of Section 3.1, each
// shown (a) occurring when evolution is unrestricted, and (b) prevented or
// mitigated by the Section 3.2 mechanism built for it.
#include <gtest/gtest.h>

#include "component/ico.h"
#include "core/dcdo.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class ProblemsTest : public ::testing::Test {
 protected:
  ProblemsTest() {
    object_ = std::make_unique<Dcdo>("victim", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
  }

  // Incorporates a pre-cached component (no fetch latency in these tests).
  void Incorporate(const ImplementationComponent& meta,
                   bool auto_deps = false) {
    testbed_.host(1)->CacheComponent(meta.id, meta.code_bytes);
    ASSERT_TRUE(object_->IncorporateCached(meta, auto_deps).ok());
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  std::unique_ptr<Dcdo> object_;
};

// ===== The disappearing exported function problem =====
//
// A client obtains the interface, finds F enabled, builds an invocation —
// and F is disabled before the invocation arrives.

TEST_F(ProblemsTest, DisappearingExportedFunctionBreaksNaiveClient) {
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "api", {"F1"});
  Incorporate(comp);
  ASSERT_TRUE(object_->EnableFunction("F1", comp.id).ok());

  // Client checks the interface: F1 is there.
  auto interface = object_->GetInterface();
  ASSERT_EQ(interface.size(), 1u);
  EXPECT_EQ(interface[0].name, "F1");

  // The invocation is in flight when F1 is disabled.
  auto client = testbed_.MakeClient(2);
  std::optional<Result<ByteBuffer>> reply;
  client->Invoke(object_->id(), "F1", ByteBuffer{},
                 [&](Result<ByteBuffer> result) {
                   reply.emplace(std::move(result));
                 });
  ASSERT_TRUE(object_->DisableFunction("F1", comp.id).ok());
  testbed_.simulation().RunWhile([&] { return !reply.has_value(); });

  // The call fails even though it was correct when built — with a *typed*
  // error the client can handle gracefully, as the paper prescribes.
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->ok());
  EXPECT_EQ(reply->status().code(), ErrorCode::kFunctionDisabled);
}

TEST_F(ProblemsTest, MandatoryMarkPreventsExportedDisappearance) {
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "api", {"F1"});
  Incorporate(comp);
  ASSERT_TRUE(object_->EnableFunction("F1", comp.id).ok());
  ASSERT_TRUE(object_->MarkMandatory("F1").ok());

  // The configuration call that would break the client is now rejected.
  EXPECT_EQ(object_->DisableFunction("F1", comp.id).code(),
            ErrorCode::kMandatoryViolation);

  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(object_->id(), "F1",
                                      ByteBuffer::FromString("safe"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "api.F1:safe");
}

// ===== The missing internal function problem =====
//
// F1 calls F2 through the DFM; F2 is not enabled.

TEST_F(ProblemsTest, MissingInternalFunctionSurfacesAsTypedError) {
  testing::RegisterForwarder(testbed_.registry(), "app/F1", "F2");
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1")
                  .Build();
  ASSERT_TRUE(comp.ok());
  Incorporate(*comp);
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());

  // F1 reaches its call to F2, which does not exist anywhere in the object.
  auto result = object_->Call("F1", ByteBuffer{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFunctionMissing);
}

TEST_F(ProblemsTest, StructuralDependencyPreventsMissingInternal) {
  testing::RegisterForwarder(testbed_.registry(), "app/F1", "F2");
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1", Visibility::kExported,
                               Constraint::kFullyDynamic, {"F2"})
                  .Build();
  ASSERT_TRUE(comp.ok());
  // auto_structural_deps turns the "calls F2" hint into a Type A dependency.
  Incorporate(*comp, /*auto_deps=*/true);

  // Enabling F1 without an implementation of F2 is refused up front — the
  // call can never be left dangling.
  EXPECT_EQ(object_->EnableFunction("F1", comp->id).code(),
            ErrorCode::kDependencyViolation);

  auto helper = testing::MakeEchoComponent(testbed_.registry(), "helper",
                                           {"F2"});
  Incorporate(helper);
  ASSERT_TRUE(object_->EnableFunction("F2", helper.id).ok());
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());
  auto result = object_->Call("F1", ByteBuffer::FromString("x"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "helper.F2:x");
}

// ===== The disappearing internal function problem =====
//
// A thread inside F1 blocks on an outcall; meanwhile F2 is disabled; the
// thread wakes and calls F2.

TEST_F(ProblemsTest, DisappearingInternalFunctionHitsWokenThread) {
  // F1: park for 2 s (outcall), then call F2 through the DFM.
  testbed_.registry().Register(
      "app/F1", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer& args) {
        ctx.BlockOnOutcall(2.0);
        return ctx.CallInternal("F2", args);
      });
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1")
                  .Build();
  ASSERT_TRUE(comp.ok());
  Incorporate(*comp);
  auto helper = testing::MakeEchoComponent(testbed_.registry(), "helper",
                                           {"F2"});
  Incorporate(helper);
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());
  ASSERT_TRUE(object_->EnableFunction("F2", helper.id).ok());

  // While F1 sleeps, a configuration call disables F2. No dependency was
  // declared, so nothing stops it.
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    EXPECT_TRUE(object_->DisableFunction("F2", helper.id,
                                         /*respect_active_dependents=*/false)
                    .ok());
  });

  auto result = object_->Call("F1", ByteBuffer{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFunctionDisabled)
      << "the woken thread found F2 gone";
}

TEST_F(ProblemsTest, ActivityMonitoringDefersDisableOfDependedOnFunction) {
  testbed_.registry().Register(
      "app/F1", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer& args) {
        ctx.BlockOnOutcall(2.0);
        return ctx.CallInternal("F2", args);
      });
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1", Visibility::kExported,
                               Constraint::kFullyDynamic, {"F2"})
                  .Build();
  ASSERT_TRUE(comp.ok());
  Incorporate(*comp, /*auto_deps=*/true);
  auto helper = testing::MakeEchoComponent(testbed_.registry(), "helper",
                                           {"F2"});
  Incorporate(helper);
  ASSERT_TRUE(object_->EnableFunction("F2", helper.id).ok());
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());

  // Same attack, but now the DFM sees (a) the Type A dependency and (b) the
  // active thread inside F1 — the disable is deferred with kActiveThreads.
  Status disable_result = InternalError("not attempted");
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    disable_result = object_->DisableFunction("F2", helper.id);
  });

  auto result = object_->Call("F1", ByteBuffer::FromString("y"));
  ASSERT_TRUE(result.ok()) << "the in-flight call completed unharmed";
  EXPECT_EQ(result->ToString(), "helper.F2:y");
  EXPECT_EQ(disable_result.code(), ErrorCode::kActiveThreads);
}

// ===== The disappearing component problem =====
//
// A thread executes inside component C; C is removed out from under it.

TEST_F(ProblemsTest, DisappearingComponentGuardedByThreadCounts) {
  testbed_.registry().Register(
      "app/F1", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer::FromString("survived"));
      });
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1")
                  .Build();
  ASSERT_TRUE(comp.ok());
  Incorporate(*comp);
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());

  // kError policy: removal while the thread is inside is rejected outright.
  Status removal = InternalError("not attempted");
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    removal = object_->RemoveComponent(comp->id);
  });
  auto result = object_->Call("F1", ByteBuffer{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "survived");
  EXPECT_EQ(removal.code(), ErrorCode::kActiveThreads);

  // With the thread gone the removal goes through.
  EXPECT_TRUE(object_->RemoveComponent(comp->id).ok());
}

TEST_F(ProblemsTest, DelayPolicyRemovesComponentAfterThreadsDrain) {
  testbed_.registry().Register(
      "app/F1", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer{});
      });
  auto comp = ComponentBuilder("app")
                  .AddFunction("F1", "b(b)", "app/F1")
                  .Build();
  ASSERT_TRUE(comp.ok());
  Incorporate(*comp);
  ASSERT_TRUE(object_->EnableFunction("F1", comp->id).ok());

  std::optional<Status> removal;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->RemoveComponentWithPolicy(comp->id, Dcdo::RemovalPolicy::Delay(),
                                       [&](Status status) {
                                         removal = status;
                                       });
  });
  ASSERT_TRUE(object_->Call("F1", ByteBuffer{}).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(removal.has_value());
  EXPECT_TRUE(removal->ok());
  EXPECT_FALSE(object_->mapper().state().HasComponent(comp->id));
}

// Recursive functions: a self-dependency plus activity monitoring keeps a
// recursive function from being disabled while it executes.
TEST_F(ProblemsTest, SelfDependencyProtectsRecursiveFunction) {
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "rec", {"fib"});
  testbed_.registry().Register(
      "rec/fib", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer{});
      });
  Incorporate(comp);
  ASSERT_TRUE(object_->RemapForHost().ok());
  ASSERT_TRUE(object_->EnableFunction("fib", comp.id).ok());
  ASSERT_TRUE(object_->AddDependency(
      Dependency::TypeC("fib", "fib", comp.id)).ok());

  Status disable_result = InternalError("not attempted");
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    disable_result = object_->DisableFunction("fib", comp.id);
  });
  ASSERT_TRUE(object_->Call("fib", ByteBuffer{}).ok());
  EXPECT_EQ(disable_result.code(), ErrorCode::kActiveThreads);
}

}  // namespace
}  // namespace dcdo
