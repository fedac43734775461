#include "core/dcdo.h"

#include <gtest/gtest.h>

#include "component/ico.h"
#include "rpc/client.h"
#include "runtime/fom.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class DcdoTest : public ::testing::Test {
 protected:
  DcdoTest() {
    comp_a_ = testing::MakeEchoComponent(testbed_.registry(), "libA",
                                         {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(testbed_.registry(), "libB", {"f"},
                                         /*code_bytes=*/550'000);
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

  // Starts `op` on object_, destroys the object 10 ms in, while libB's
  // 550 KB image still streams, and expects `done` once with kNotFound and
  // no operation left behind: the fetcher outlives the object, so the image
  // lands and the operation finds its object gone.
  void ExpectDestroyMidFetchEndsNotFound(
      const std::function<void(Dcdo::DoneCallback)>& op) {
    int calls = 0;
    Status status;
    op([&](Status result) {
      ++calls;
      status = std::move(result);
    });
    testbed_.simulation().RunUntil(testbed_.simulation().Now() +
                                   sim::SimDuration::Millis(10));
    ASSERT_EQ(calls, 0) << "the image was not streaming yet";
    object_.reset();
    testbed_.simulation().Run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status;
    EXPECT_EQ(runtime::FomScheduler::For(testbed_.simulation()).live_count(),
              0u);
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

TEST_F(DcdoTest, ActivationBindsInNamespace) {
  EXPECT_TRUE(testbed_.agent().Bound(object_->id()));
  EXPECT_EQ(object_->version(), VersionId::Root());
  EXPECT_TRUE(object_->GetComponents().empty());
}

TEST_F(DcdoTest, IncorporateFetchesWhenNotCached) {
  sim::SimTime start = testbed_.simulation().Now();
  ASSERT_TRUE(IncorporateBlocking(comp_b_.id).ok());
  // Component fetch = session overhead + streaming: ~0.2 s for 550 KB.
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GT(seconds, 0.15);
  EXPECT_LT(seconds, 1.0);
  EXPECT_TRUE(testbed_.host(1)->ComponentCached(comp_b_.id));
}

TEST_F(DcdoTest, IncorporateCachedIsCheap) {
  ASSERT_TRUE(IncorporateBlocking(comp_b_.id).ok());  // warms the cache
  sim::SimTime start = testbed_.simulation().Now();
  Dcdo second("obj2", testbed_.host(1), &testbed_.transport(),
              &testbed_.agent(), &testbed_.registry(), &icos_,
              VersionId::Root(), &fetcher_);
  ASSERT_TRUE(second.IncorporateCached(comp_b_).ok());
  double micros = (testbed_.simulation().Now() - start).ToSeconds() * 1e6;
  EXPECT_LT(micros, 1000.0) << "cached incorporate is ~200 us + registration";
  EXPECT_GE(micros, 200.0);
}

TEST_F(DcdoTest, IncorporateUnknownComponentFails) {
  Status status = IncorporateBlocking(ObjectId::Next(domains::kComponent));
  EXPECT_EQ(status.code(), ErrorCode::kComponentMissing);
}

TEST_F(DcdoTest, DestroyDuringIncorporateFetchEndsNotFound) {
  ExpectDestroyMidFetchEndsNotFound([&](Dcdo::DoneCallback done) {
    object_->IncorporateComponent(comp_b_.id, std::move(done));
  });
}

TEST_F(DcdoTest, DestroyDuringEvolveToFetchEndsNotFound) {
  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_b_.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());
  ExpectDestroyMidFetchEndsNotFound([&](Dcdo::DoneCallback done) {
    object_->EvolveTo(target, Dcdo::RemovalPolicy::Error(), std::move(done));
  });
}

TEST_F(DcdoTest, CallGoesThroughDfm) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());

  auto result = object_->Call("f", ByteBuffer::FromString("hi"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libA.f:hi");
  EXPECT_EQ(object_->user_calls(), 1u);
}

TEST_F(DcdoTest, CallChargesDfmLookupInSimTime) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  sim::SimTime start = testbed_.simulation().Now();
  ASSERT_TRUE(object_->Call("f", ByteBuffer{}).ok());
  double micros = (testbed_.simulation().Now() - start).ToSeconds() * 1e6;
  EXPECT_GE(micros, 10.0);
  EXPECT_LE(micros, 15.0);
}

TEST_F(DcdoTest, IntraObjectCallsAlsoGoThroughDfm) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  // A forwarder in a separate component calls f through the DFM.
  testing::RegisterForwarder(testbed_.registry(), "fw/call_f", "f");
  auto forwarder = ComponentBuilder("fw")
                       .AddFunction("callF", "b(b)", "fw/call_f",
                                    Visibility::kExported,
                                    Constraint::kFullyDynamic, {"f"})
                       .Build();
  ASSERT_TRUE(forwarder.ok());
  testbed_.host(1)->CacheComponent(forwarder->id, forwarder->code_bytes);
  ASSERT_TRUE(object_->IncorporateCached(*forwarder).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("callF", forwarder->id).ok());

  auto result = object_->Call("callF", ByteBuffer::FromString("z"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libA.f:z");
  // Both the outer and the inner call resolved through the DFM.
  EXPECT_EQ(object_->mapper().calls_resolved(), 2u);
}

TEST_F(DcdoTest, RemoteInvocationOfDynamicFunction) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(object_->id(), "f",
                                      ByteBuffer::FromString("remote"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "libA.f:remote");
}

TEST_F(DcdoTest, RemoteCallOfDisabledFunctionIsTypedError) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(object_->id(), "f");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kFunctionDisabled);
}

TEST_F(DcdoTest, StatusReportingOverRpc) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  auto client = testbed_.MakeClient(2);

  auto interface = client->InvokeBlocking(object_->id(), "dcdo.getInterface");
  ASSERT_TRUE(interface.ok());
  Reader reader(*interface);
  EXPECT_EQ(reader.ReadU64().value_or(0), 1u);
  EXPECT_EQ(reader.ReadString().value_or(""), "f");

  auto version = client->InvokeBlocking(object_->id(), "dcdo.getVersion");
  ASSERT_TRUE(version.ok());
  Reader vreader(*version);
  EXPECT_EQ(vreader.ReadVersionId().value_or(VersionId()), VersionId::Root());

  auto components = client->InvokeBlocking(object_->id(),
                                           "dcdo.getComponents");
  ASSERT_TRUE(components.ok());
  Reader creader(*components);
  EXPECT_EQ(creader.ReadU64().value_or(0), 1u);
}

TEST_F(DcdoTest, ConfigurationOverRpc) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  auto client = testbed_.MakeClient(2);

  Writer writer;
  writer.WriteString("f");
  writer.WriteObjectId(comp_a_.id);
  auto enabled = client->InvokeBlocking(object_->id(), "dcdo.enableFunction",
                                        std::move(writer).Take());
  ASSERT_TRUE(enabled.ok());
  EXPECT_NE(object_->mapper().state().EnabledImpl("f"), nullptr);

  Writer disable_writer;
  disable_writer.WriteString("f");
  disable_writer.WriteObjectId(comp_a_.id);
  auto disabled = client->InvokeBlocking(
      object_->id(), "dcdo.disableFunction", std::move(disable_writer).Take());
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(object_->mapper().state().EnabledImpl("f"), nullptr);
}

TEST_F(DcdoTest, IncorporateOverRpc) {
  auto client = testbed_.MakeClient(2);
  Writer writer;
  writer.WriteObjectId(comp_a_.id);
  auto reply = client->InvokeBlocking(
      object_->id(), "dcdo.incorporateComponent", std::move(writer).Take());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(object_->mapper().state().HasComponent(comp_a_.id));
}

TEST_F(DcdoTest, UnknownConfigMethodRejected) {
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(object_->id(), "dcdo.selfDestruct");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

// The decisive advantage over monolithic evolution: the process (and its
// heap) survives, so per-object state persists across implementation
// switches with no capture/restore step.
TEST_F(DcdoTest, ObjectStateSurvivesEvolutionInCore) {
  // A counter service: "bump" increments a counter kept in object_data().
  testbed_.registry().Register(
      "ctr-v1/bump", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        std::uint64_t value = 0;
        ctx.object_data().ReadAt(0, &value, sizeof(value));
        ++value;
        ctx.object_data() = ByteBuffer{};
        ctx.object_data().Append(&value, sizeof(value));
        Writer writer;
        writer.WriteU64(value);
        return Result<ByteBuffer>(std::move(writer).Take());
      });
  // v2 counts by ten — different behaviour, same state.
  testbed_.registry().Register(
      "ctr-v2/bump", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        std::uint64_t value = 0;
        ctx.object_data().ReadAt(0, &value, sizeof(value));
        value += 10;
        ctx.object_data() = ByteBuffer{};
        ctx.object_data().Append(&value, sizeof(value));
        Writer writer;
        writer.WriteU64(value);
        return Result<ByteBuffer>(std::move(writer).Take());
      });
  auto v1 = ComponentBuilder("ctr-v1")
                .AddFunction("bump", "u()", "ctr-v1/bump")
                .Build();
  auto v2 = ComponentBuilder("ctr-v2")
                .AddFunction("bump", "u()", "ctr-v2/bump")
                .Build();
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  testbed_.host(1)->CacheComponent(v1->id, v1->code_bytes);
  testbed_.host(1)->CacheComponent(v2->id, v2->code_bytes);
  ASSERT_TRUE(object_->IncorporateCached(*v1).ok());
  ASSERT_TRUE(object_->IncorporateCached(*v2).ok());
  ASSERT_TRUE(object_->EnableFunction("bump", v1->id).ok());

  auto read = [](const Result<ByteBuffer>& reply) {
    Reader reader(*reply);
    return reader.ReadU64().value_or(0);
  };
  EXPECT_EQ(read(object_->Call("bump", ByteBuffer{})), 1u);
  EXPECT_EQ(read(object_->Call("bump", ByteBuffer{})), 2u);

  // Hot-swap the implementation; the counter carries straight on.
  ASSERT_TRUE(object_->SwitchImplementation("bump", v2->id).ok());
  EXPECT_EQ(read(object_->Call("bump", ByteBuffer{})), 12u)
      << "state survived the implementation switch in core";
}

TEST_F(DcdoTest, ActiveCountsReportedOverRpc) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  // A long-running call holds the count at 1 while we query it remotely.
  testbed_.registry().Register(
      "libA/f", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer{});
      });
  ASSERT_TRUE(object_->RemapForHost().ok());

  std::optional<std::uint64_t> observed_rows;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    auto client = testbed_.MakeClient(2);
    auto reply = client->InvokeBlocking(object_->id(),
                                        "dcdo.getActiveCounts");
    ASSERT_TRUE(reply.ok());
    Reader reader(*reply);
    observed_rows = reader.ReadU64().value_or(99);
    if (*observed_rows == 1) {
      EXPECT_EQ(reader.ReadString().value_or(""), "f");
      EXPECT_EQ(reader.ReadObjectId().value_or(ObjectId()), comp_a_.id);
      EXPECT_EQ(reader.ReadU32().value_or(0), 1u);
    }
  });
  ASSERT_TRUE(object_->Call("f", ByteBuffer{}).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(observed_rows.has_value());
  EXPECT_EQ(*observed_rows, 1u);

  // Quiescent object: the report is empty.
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(object_->id(), "dcdo.getActiveCounts");
  ASSERT_TRUE(reply.ok());
  Reader reader(*reply);
  EXPECT_EQ(reader.ReadU64().value_or(99), 0u);
}

// Evolution acquires the target's components without touching the live
// table, then commits the target's table with the target's own records.
// The object is live (its table holds libA, which the target keeps), and
// callers see nothing change before the commit: not the component list,
// not the table's stamp, not which implementation answers.
TEST_F(DcdoTest, EvolveSharesTheTargetsRecordsWhileAcquiring) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(target.EnableFunction("g", comp_a_.id).ok());
  std::vector<std::unique_ptr<ImplementationComponentObject>> icos;
  for (int i = 0; i < 50; ++i) {
    const std::string name = "lib" + std::to_string(i);
    const ImplementationComponent comp = testing::MakeEchoComponent(
        testbed_.registry(), name, {name + "_f", name + "_g"});
    icos.push_back(std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp));
    icos_.Register(icos.back().get());
    ASSERT_TRUE(target.IncorporateComponent(comp).ok());
    ASSERT_TRUE(target.EnableFunction(name + "_f", comp.id).ok());
  }
  ASSERT_TRUE(target.MarkInstantiable().ok());
  const std::vector<ObjectId> components_before = object_->GetComponents();
  const std::uint64_t stamp_before = object_->mapper().table_version();
  auto call = [&](const std::string& function) {
    auto result = object_->Call(function, ByteBuffer::FromString("x"));
    return result.ok() ? result->ToString()
                       : std::string(ErrorCodeName(result.status().code()));
  };

  std::optional<Status> evolved;
  object_->EvolveTo(target, Dcdo::RemovalPolicy::Error(),
                    [&](Status status) { evolved = status; });
  ASSERT_TRUE(testbed_.simulation().RunWhile(
      [&] { return testbed_.host(1)->cached_component_count() < 21; }));
  EXPECT_FALSE(evolved.has_value()) << "still acquiring, nothing committed";
  EXPECT_EQ(object_->GetComponents(), components_before);
  EXPECT_EQ(object_->mapper().table_version(), stamp_before);
  EXPECT_EQ(call("f"), "libA.f:x");
  EXPECT_EQ(call("g"), "FUNCTION_DISABLED");
  EXPECT_EQ(call("lib0_f"), "FUNCTION_MISSING");

  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved.has_value());
  ASSERT_TRUE(evolved->ok()) << evolved->ToString();
  EXPECT_EQ(object_->mapper().state().component_count(), 51u);
  for (const ComponentRecord& record :
       object_->mapper().state().components()) {
    EXPECT_EQ(record, target.state().SharedComponent(record->id))
        << record->name;
  }
  EXPECT_EQ(call("f"), "FUNCTION_DISABLED");
  EXPECT_EQ(call("g"), "libA.g:x");
  EXPECT_EQ(call("lib0_f"), "lib0.lib0_f:x");
}

// A fresh instance takes its version's table whole: the descriptor's rows
// (pointing into the same metadata, with the same bits), marks,
// dependencies and records; every enabled function acquires by name and by
// id; and the evolution lands at the simulated instant that incorporating
// each component and adopting the configuration took.
TEST_F(DcdoTest, FreshInstanceInstallsItsVersionsTable) {
  DfmDescriptor target(VersionId::Root().Child(1));
  std::vector<std::unique_ptr<ImplementationComponentObject>> icos;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "lib" + std::to_string(i);
    const ImplementationComponent comp = testing::MakeEchoComponent(
        testbed_.registry(), name, {name + "_f", name + "_g", "shared"});
    icos.push_back(std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp));
    icos_.Register(icos.back().get());
    ids.push_back(comp.id);
    ASSERT_TRUE(target.IncorporateComponent(comp).ok());
    ASSERT_TRUE(target.EnableFunction(name + "_f", comp.id).ok());
  }
  ASSERT_TRUE(target.EnableFunction("shared", ids[3]).ok());
  ASSERT_TRUE(target.EnableFunction("lib5_g", ids[5]).ok());
  ASSERT_TRUE(
      target.SetVisibility("lib5_g", ids[5], Visibility::kInternal).ok());
  ASSERT_TRUE(target.MarkMandatory("lib0_f").ok());
  ASSERT_TRUE(target.MarkPermanent("lib4_f", ids[4]).ok());
  ASSERT_TRUE(target.AddDependency(Dependency::TypeD("lib1_f", "lib2_f")).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());

  std::optional<Status> evolved;
  object_->EvolveTo(target, Dcdo::RemovalPolicy::Error(),
                    [&](Status status) { evolved = status; });
  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved.has_value());
  ASSERT_TRUE(evolved->ok()) << evolved->ToString();
  EXPECT_EQ(testbed_.simulation().Now().nanos(), 2'031'607'596);

  const DfmState& mine = object_->mapper().state();
  const DfmState& theirs = target.state();
  ASSERT_EQ(mine.entry_count(), theirs.entry_count());
  for (std::size_t i = 0; i < mine.entry_count(); ++i) {
    const DfmEntry& a = mine.entries()[i];
    const DfmEntry& b = theirs.entries()[i];
    EXPECT_EQ(a.component, b.component);
    EXPECT_EQ(a.impl, b.impl) << a.name();
    EXPECT_EQ(a.function_id, b.function_id) << a.name();
    EXPECT_EQ(a.visibility, b.visibility) << a.name();
    EXPECT_EQ(a.enabled, b.enabled) << a.name();
    EXPECT_EQ(a.permanent, b.permanent) << a.name();
  }
  EXPECT_EQ(mine.mandatory_functions(), theirs.mandatory_functions());
  EXPECT_EQ(mine.dependencies().all(), theirs.dependencies().all());
  ASSERT_EQ(mine.component_count(), theirs.component_count());
  for (std::size_t i = 0; i < mine.component_count(); ++i) {
    EXPECT_EQ(mine.components()[i], theirs.components()[i]);
  }
  for (const DfmEntry& row : theirs.entries()) {
    if (!row.enabled) continue;
    // The echo body names the component that serviced the call.
    const std::string serviced =
        theirs.FindComponent(row.component)->name + "." + row.name() + ":x";
    auto by_name =
        object_->CallInternal(row.name(), ByteBuffer::FromString("x"));
    ASSERT_TRUE(by_name.ok()) << row.name() << ": " << by_name.status();
    EXPECT_EQ(by_name->ToString(), serviced);
    auto by_id =
        object_->CallInternal(row.function_id, ByteBuffer::FromString("x"));
    ASSERT_TRUE(by_id.ok()) << row.name() << ": " << by_id.status();
    EXPECT_EQ(by_id->ToString(), serviced);
  }
  EXPECT_EQ(object_->Call("lib5_g", ByteBuffer{}).status().code(),
            ErrorCode::kFunctionMissing);
  EXPECT_EQ(object_->Call("lib6_g", ByteBuffer{}).status().code(),
            ErrorCode::kFunctionDisabled);
  auto shared = object_->Call("shared", ByteBuffer::FromString("s"));
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared->ToString(), "lib3.shared:s");
}

// A fresh instance whose version cannot be mapped fails exactly as
// incorporating would have — same error, same simulated instant — and its
// table stays untouched, so the object can then take a good version.
TEST_F(DcdoTest, FreshInstallFailureMatchesIncorporate) {
  auto unresolved = ComponentBuilder("unresolved")
                        .AddFunction("u", "b(b)", "nowhere/u")
                        .Build();
  ASSERT_TRUE(unresolved.ok());
  testbed_.registry().Register(
      "sparc/s", ImplementationType::Native(sim::Architecture::kSparcSolaris),
      [](CallContext&, const ByteBuffer&) {
        return Result<ByteBuffer>(ByteBuffer{});
      });
  auto sparc = ComponentBuilder("sparc")
                   .SetType(ImplementationType::Native(
                       sim::Architecture::kSparcSolaris))
                   .AddFunction("s", "b(b)", "sparc/s")
                   .Build();
  ASSERT_TRUE(sparc.ok());
  std::vector<std::unique_ptr<ImplementationComponentObject>> icos;
  for (const ImplementationComponent* comp : {&*unresolved, &*sparc}) {
    icos.push_back(std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), *comp));
    icos_.Register(icos.back().get());
  }
  struct Case {
    const ImplementationComponent* bad;
    const char* function;
    ErrorCode code;
    std::string message;
    std::int64_t failed_after;  // ns of simulated time
  };
  const Case cases[] = {
      // Fetches libA, then the bad image, whose symbol fails to resolve.
      {&*unresolved, "u", ErrorCode::kNotFound,
       "unresolved symbol 'nowhere/u'", 331'752'666},
      // libA is cached by now: one fetch, then the arch check fails.
      {&*sparc, "s", ErrorCode::kArchMismatch,
       "component sparc (sparc-solaris/elf-so/c++) is incompatible with host "
       "architecture x86-linux",
       162'714'533},
  };
  int child = 1;
  for (const Case& c : cases) {
    DfmDescriptor target(VersionId::Root().Child(child++));
    ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());
    ASSERT_TRUE(target.IncorporateComponent(*c.bad).ok());
    ASSERT_TRUE(target.EnableFunction("f", comp_a_.id).ok());
    ASSERT_TRUE(target.EnableFunction(c.function, c.bad->id).ok());
    ASSERT_TRUE(target.MarkInstantiable().ok());
    Dcdo fresh("fresh", testbed_.host(1), &testbed_.transport(),
               &testbed_.agent(), &testbed_.registry(), &icos_,
               VersionId::Root(), &fetcher_);
    std::optional<Status> evolved;
    const sim::SimTime start = testbed_.simulation().Now();
    fresh.EvolveTo(target, Dcdo::RemovalPolicy::Error(),
                   [&](Status status) { evolved = status; });
    testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
    ASSERT_TRUE(evolved.has_value());
    EXPECT_EQ(evolved->code(), c.code) << evolved->ToString();
    EXPECT_EQ(evolved->message(), c.message);
    EXPECT_EQ((testbed_.simulation().Now() - start).nanos(), c.failed_after);
    // Nothing was incorporated: the resolved bodies staged so far went with
    // the failed evolution.
    EXPECT_EQ(fresh.mapper().state().component_count(), 0u);

    DfmDescriptor good(VersionId::Root().Child(child++));
    ASSERT_TRUE(good.IncorporateComponent(comp_a_).ok());
    ASSERT_TRUE(good.IncorporateComponent(comp_b_).ok());
    ASSERT_TRUE(good.EnableFunction("f", comp_b_.id).ok());
    ASSERT_TRUE(good.EnableFunction("g", comp_a_.id).ok());
    ASSERT_TRUE(good.MarkInstantiable().ok());
    evolved.reset();
    fresh.EvolveTo(good, Dcdo::RemovalPolicy::Error(),
                   [&](Status status) { evolved = status; });
    testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
    ASSERT_TRUE(evolved.has_value());
    ASSERT_TRUE(evolved->ok()) << evolved->ToString();
    EXPECT_EQ(fresh.mapper().state().component_count(), 2u);
    EXPECT_FALSE(fresh.mapper().state().HasComponent(c.bad->id));
    auto f = fresh.Call("f", ByteBuffer::FromString("x"));
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->ToString(), "libB.f:x");
    auto g = fresh.Call("g", ByteBuffer::FromString("y"));
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->ToString(), "libA.g:y");
  }
}

// An evolution that drops a component with a call parked inside it. libA's
// "f" parks for 2 s when asked to; the target keeps libB alone and serves
// "f" from it.
class ParkedEvolutionTest : public DcdoTest {
 protected:
  ParkedEvolutionTest() {
    testbed_.registry().Register(
        "libA/f", ImplementationType::Portable(),
        [](CallContext& ctx, const ByteBuffer& args) {
          if (args.ToString() == "park") ctx.BlockOnOutcall(2.0);
          return Result<ByteBuffer>(
              ByteBuffer::FromString("libA.f:" + args.ToString()));
        });
  }

  void SetUp() override {
    ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
    ASSERT_TRUE(IncorporateBlocking(comp_b_.id).ok());
    ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
    ASSERT_TRUE(object_->EnableFunction("g", comp_a_.id).ok());
    ASSERT_TRUE(target_.IncorporateComponent(comp_b_).ok());
    ASSERT_TRUE(target_.EnableFunction("f", comp_b_.id).ok());
    ASSERT_TRUE(target_.MarkInstantiable().ok());
  }

  // What a caller can observe: the version, the components, each
  // function's enabled implementation and each call's outcome.
  std::string Observe() {
    std::string seen = object_->version().ToString();
    for (const ObjectId& id : object_->GetComponents()) {
      seen += " " + id.ToString();
    }
    for (const std::string function : {"f", "g"}) {
      const DfmEntry* impl = object_->mapper().state().EnabledImpl(function);
      seen += " " + function + "@" +
              (impl == nullptr ? "none" : impl->component.ToString());
      auto result = object_->Call(function, ByteBuffer::FromString("x"));
      seen += "=" + (result.ok() ? result->ToString()
                                 : result.status().ToString());
    }
    return seen;
  }

  DfmDescriptor target_{VersionId::Root().Child(1)};
};

// Under Error() a thread inside a dropped component fails the evolution
// before anything changes.
TEST_F(ParkedEvolutionTest, ErrorPolicyFailureChangesNothing) {
  const std::string before = Observe();
  std::optional<Status> evolved;
  std::string after;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->EvolveTo(target_, Dcdo::RemovalPolicy::Error(),
                      [&](Status status) {
                        evolved = status;
                        after = Observe();
                      });
  });
  ASSERT_TRUE(object_->Call("f", ByteBuffer::FromString("park")).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(evolved.has_value());
  EXPECT_EQ(evolved->code(), ErrorCode::kActiveThreads) << *evolved;
  EXPECT_EQ(after, before);
  EXPECT_EQ(Observe(), before);
}

// Under Delay() the drain comes before the commit: the evolution commits
// only once the parked call returns, and until then "f" answers from libA.
TEST_F(ParkedEvolutionTest, DelayPolicyCommitsOnceTheCallReturns) {
  const sim::SimTime start = testbed_.simulation().Now();
  const std::string before = Observe();
  std::optional<Status> evolved;
  sim::SimTime evolved_at;
  std::string during;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->EvolveTo(target_, Dcdo::RemovalPolicy::Delay(),
                      [&](Status status) {
                        evolved = status;
                        evolved_at = testbed_.simulation().Now();
                      });
  });
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0),
                                 [&] { during = Observe(); });
  ASSERT_TRUE(object_->Call("f", ByteBuffer::FromString("park")).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(evolved.has_value());
  ASSERT_TRUE(evolved->ok()) << *evolved;
  EXPECT_EQ(during, before);
  EXPECT_GE((evolved_at - start).ToSeconds(), 2.0) << "waited for the call";
  EXPECT_EQ(object_->version(), VersionId::Root().Child(1));
  EXPECT_EQ(object_->GetComponents(), std::vector<ObjectId>{comp_b_.id});
  auto f = object_->Call("f", ByteBuffer::FromString("x"));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->ToString(), "libB.f:x");
  EXPECT_EQ(object_->Call("g", ByteBuffer{}).status().code(),
            ErrorCode::kFunctionMissing);
}

// Under Timeout() the commit waits for the drain up to its deadline, then
// goes ahead with kForce: the parked call finishes inside libA's body,
// which its guard keeps alive.
TEST_F(ParkedEvolutionTest, TimeoutPolicyForcesTheCommitAtItsDeadline) {
  const sim::SimTime start = testbed_.simulation().Now();
  std::optional<Status> evolved;
  sim::SimTime evolved_at;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->EvolveTo(
        target_, Dcdo::RemovalPolicy::Timeout(sim::SimDuration::Seconds(1.0)),
        [&](Status status) {
          evolved = status;
          evolved_at = testbed_.simulation().Now();
        });
  });
  auto parked = object_->Call("f", ByteBuffer::FromString("park"));
  ASSERT_TRUE(parked.ok());
  EXPECT_EQ(parked->ToString(), "libA.f:park");
  testbed_.simulation().Run();
  ASSERT_TRUE(evolved.has_value());
  ASSERT_TRUE(evolved->ok()) << *evolved;
  const double seconds = (evolved_at - start).ToSeconds();
  EXPECT_GE(seconds, 1.5) << "waited until the deadline";
  EXPECT_LT(seconds, 2.0) << "forced before the call returned";
  EXPECT_EQ(object_->GetComponents(), std::vector<ObjectId>{comp_b_.id});
  auto f = object_->Call("f", ByteBuffer::FromString("x"));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->ToString(), "libB.f:x");
}

// --- Removal policies (Section 3.2 thread-activity options) ---

TEST_F(DcdoTest, RemovalPolicyErrorRejectsOnActiveThreads) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  // Body parks inside the function for 2 sim-seconds.
  testbed_.registry().Register(
      "libA/f", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer::FromString("slow-done"));
      });
  ASSERT_TRUE(object_->RemapForHost().ok());

  std::optional<Status> removal;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    object_->RemoveComponentWithPolicy(
        comp_a_.id, Dcdo::RemovalPolicy::Error(),
        [&](Status status) { removal = status; });
  });
  auto result = object_->Call("f", ByteBuffer{});  // runs 0..2 s
  ASSERT_TRUE(result.ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(removal.has_value());
  EXPECT_EQ(removal->code(), ErrorCode::kActiveThreads);
  EXPECT_TRUE(object_->mapper().state().HasComponent(comp_a_.id));
}

TEST_F(DcdoTest, RemovalPolicyDelayWaitsForDrain) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  testbed_.registry().Register(
      "libA/f", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer{});
      });
  ASSERT_TRUE(object_->RemapForHost().ok());

  std::optional<Status> removal;
  sim::SimTime removal_done;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->RemoveComponentWithPolicy(comp_a_.id,
                                       Dcdo::RemovalPolicy::Delay(),
                                       [&](Status status) {
                                         removal = status;
                                         removal_done =
                                             testbed_.simulation().Now();
                                       });
  });
  ASSERT_TRUE(object_->Call("f", ByteBuffer{}).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(removal.has_value());
  EXPECT_TRUE(removal->ok());
  EXPECT_GE(removal_done.ToSeconds(), 2.0) << "waited for the thread";
  EXPECT_FALSE(object_->mapper().state().HasComponent(comp_a_.id));
}

TEST_F(DcdoTest, RemovalPolicyTimeoutForcesAtDeadline) {
  ASSERT_TRUE(IncorporateBlocking(comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  testbed_.registry().Register(
      "libA/f", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(60.0);  // far longer than the removal deadline
        return Result<ByteBuffer>(ByteBuffer{});
      });
  ASSERT_TRUE(object_->RemapForHost().ok());

  std::optional<Status> removal;
  sim::SimTime removal_done;
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object_->RemoveComponentWithPolicy(
        comp_a_.id,
        Dcdo::RemovalPolicy::Timeout(sim::SimDuration::Seconds(3.0)),
        [&](Status status) {
          removal = status;
          removal_done = testbed_.simulation().Now();
        });
  });
  ASSERT_TRUE(object_->Call("f", ByteBuffer{}).ok());
  testbed_.simulation().Run();
  ASSERT_TRUE(removal.has_value());
  EXPECT_TRUE(removal->ok());
  // Removal was requested ~3 s into the run with a 3 s deadline: it must be
  // forced around the 6 s mark, far before the 60 s the thread would take.
  EXPECT_LT(removal_done.ToSeconds(), 8.0) << "forced well before 60 s";
  EXPECT_FALSE(object_->mapper().state().HasComponent(comp_a_.id));
}

}  // namespace
}  // namespace dcdo
