#include "dfm/mapper.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace dcdo {
namespace {

constexpr auto kArch = sim::Architecture::kX86Linux;

class NullContext : public CallContext {
 public:
  Result<ByteBuffer> CallInternal(const std::string&,
                                  const ByteBuffer&) override {
    return FunctionMissingError("null context");
  }
  ObjectId self_id() const override { return ObjectId(); }
  void BlockOnOutcall(double) override {}
};

class MapperTest : public ::testing::Test {
 protected:
  MapperTest() {
    comp_a_ = testing::MakeEchoComponent(registry_, "libA", {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(registry_, "libB", {"f"});
  }

  std::string CallThrough(const std::string& function,
                          CallOrigin origin = CallOrigin::kExternal) {
    auto guard = mapper_.Acquire(function, origin);
    if (!guard.ok()) return guard.status().ToString();
    NullContext ctx;
    auto result = guard->body()(ctx, ByteBuffer::FromString("x"));
    return result.ok() ? result->ToString() : result.status().ToString();
  }

  // Commits `target`, staging bodies for the components the mapper lacks.
  Status Commit(DfmState target, bool enforce_marks) {
    std::vector<DynamicFunctionMapper::ResolvedComponent> staged;
    for (const ComponentRecord& record : target.components()) {
      if (mapper_.state().HasComponent(record->id)) continue;
      auto bodies =
          DynamicFunctionMapper::ResolveComponent(*record, registry_, kArch);
      if (!bodies.ok()) return bodies.status();
      staged.push_back(*std::move(bodies));
    }
    return mapper_.CommitConfiguration(target, staged, enforce_marks);
  }

  NativeCodeRegistry registry_;
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  DynamicFunctionMapper mapper_;
};

TEST_F(MapperTest, IncorporateResolvesAndCallsBody) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  EXPECT_EQ(CallThrough("f"), "libA.f:x");
  EXPECT_EQ(mapper_.calls_resolved(), 1u);
}

TEST_F(MapperTest, ErrorTaxonomyMatchesProblemClasses) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  // Present but disabled -> kFunctionDisabled.
  auto disabled = mapper_.Acquire("f", CallOrigin::kExternal);
  EXPECT_EQ(disabled.status().code(), ErrorCode::kFunctionDisabled);
  // Entirely absent -> kFunctionMissing.
  auto missing = mapper_.Acquire("zap", CallOrigin::kExternal);
  EXPECT_EQ(missing.status().code(), ErrorCode::kFunctionMissing);
  EXPECT_EQ(mapper_.calls_rejected(), 2u);
}

TEST_F(MapperTest, InternalFunctionInvisibleExternally) {
  auto internal = ComponentBuilder("libI")
                      .AddFunction("helper", "v()", "libI/helper",
                                   Visibility::kInternal)
                      .Build();
  ASSERT_TRUE(internal.ok());
  testing::RegisterEcho(registry_, "libI/helper", "helper");
  ASSERT_TRUE(mapper_.IncorporateComponent(*internal, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("helper", internal->id).ok());

  // Externally it looks missing (not merely disabled).
  auto external = mapper_.Acquire("helper", CallOrigin::kExternal);
  EXPECT_EQ(external.status().code(), ErrorCode::kFunctionMissing);
  // Internally it works.
  auto internal_call = mapper_.Acquire("helper", CallOrigin::kInternal);
  EXPECT_TRUE(internal_call.ok());
}

TEST_F(MapperTest, IncorporateIsAllOrNothingOnUnresolvedSymbol) {
  auto broken = ComponentBuilder("broken")
                    .AddFunction("ok", "v()", "broken/ok")
                    .AddFunction("bad", "v()", "broken/missing-symbol")
                    .Build();
  ASSERT_TRUE(broken.ok());
  testing::RegisterEcho(registry_, "broken/ok", "ok");
  // "broken/missing-symbol" never registered.
  Status status = mapper_.IncorporateComponent(*broken, registry_, kArch);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_FALSE(mapper_.state().HasComponent(broken->id));
}

TEST_F(MapperTest, IncorporateRejectsIncompatibleArchitecture) {
  auto native = ComponentBuilder("natA")
                    .SetType(ImplementationType::Native(
                        sim::Architecture::kSparcSolaris))
                    .AddFunction("f", "v()", "natA/f")
                    .Build();
  ASSERT_TRUE(native.ok());
  Status status = mapper_.IncorporateComponent(*native, registry_, kArch);
  EXPECT_EQ(status.code(), ErrorCode::kArchMismatch);
}

TEST_F(MapperTest, IncorporateKeepsTheGivenRecord) {
  auto record = std::make_shared<const ImplementationComponent>(comp_a_);
  ASSERT_TRUE(mapper_.IncorporateComponent(record, registry_, kArch).ok());
  EXPECT_EQ(mapper_.state().SharedComponent(comp_a_.id).get(), record.get());
}

// Incorporate re-derives only the slots whose answer changes; these pin the
// answers that must come out of that shortcut.
TEST_F(MapperTest, IncorporatedOnlyImplementationAcquiresAsDisabled) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_b_, registry_, kArch).ok());
  EXPECT_EQ(mapper_.Acquire("f", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionDisabled);
  // A second, disabled implementation leaves an enabled one in service.
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_b_.id).ok());
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  EXPECT_EQ(CallThrough("f"), "libB.f:x");
  EXPECT_EQ(mapper_.Acquire("g", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionDisabled);
}

TEST_F(MapperTest, PermanentImplementationCallableRightAfterIncorporate) {
  auto pinned = ComponentBuilder("libP")
                    .AddFunction("p", "v()", "libP/p", Visibility::kExported,
                                 Constraint::kPermanent)
                    .AddFunction("q", "v()", "libP/q")
                    .Build();
  ASSERT_TRUE(pinned.ok());
  testing::RegisterEcho(registry_, "libP/p", "libP.p");
  testing::RegisterEcho(registry_, "libP/q", "libP.q");
  ASSERT_TRUE(mapper_.IncorporateComponent(*pinned, registry_, kArch).ok());
  EXPECT_EQ(CallThrough("p"), "libP.p:x");
  EXPECT_EQ(mapper_.Acquire("q", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionDisabled);
}

TEST_F(MapperTest, RemovedThenReincorporatedFunctionReadsDisabled) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(mapper_.RemoveComponent(comp_a_.id).ok());
  EXPECT_EQ(mapper_.Acquire("f", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionMissing);
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  EXPECT_EQ(mapper_.Acquire("f", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionDisabled);
}

TEST_F(MapperTest, TableVersionBumpsOncePerIncorporate) {
  const std::uint64_t start = mapper_.table_version();
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  EXPECT_EQ(mapper_.table_version(), start + 1);
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_b_, registry_, kArch).ok());
  EXPECT_EQ(mapper_.table_version(), start + 2);
  // A rejected incorporate changes nothing, the stamp included.
  EXPECT_FALSE(mapper_.IncorporateComponent(comp_b_, registry_, kArch).ok());
  EXPECT_EQ(mapper_.table_version(), start + 2);
}

// Sixty components arriving in a shuffled order, their names interleaving:
// after every incorporate the rows stay sorted and findable, and every
// function acquires as the table says.
TEST_F(MapperTest, ShuffledIncorporatesKeepRowsSortedAndSlotsCurrent) {
  const std::vector<ImplementationComponent> components =
      testing::MakeInterleavedComponents(registry_, 60, /*seed=*/11);
  for (std::size_t step = 0; step < components.size(); ++step) {
    const ImplementationComponent& added = components[step];
    ASSERT_TRUE(mapper_.IncorporateComponent(added, registry_, kArch).ok());
    ASSERT_TRUE(
        mapper_.EnableFunction(added.functions[0].function.name, added.id)
            .ok());
    std::span<const DfmEntry> rows = mapper_.state().entries();
    for (std::size_t i = 1; i < rows.size(); ++i) {
      ASSERT_LT(CompareRows(rows[i - 1], rows[i]), 0) << "step " << step;
    }
    for (std::size_t done = 0; done <= step; ++done) {
      const ImplementationComponent& c = components[done];
      for (const FunctionImplDescriptor& fn : c.functions) {
        ASSERT_NE(mapper_.state().FindEntry(fn.function.name, c.id), nullptr)
            << fn.function.name << " lost at step " << step;
      }
      const std::string& enabled = c.functions[0].function.name;
      EXPECT_EQ(CallThrough(enabled), c.name + "." + enabled + ":x");
      for (const std::string& disabled :
           {c.functions[1].function.name, c.functions[2].function.name}) {
        EXPECT_EQ(mapper_.Acquire(disabled, CallOrigin::kExternal)
                      .status()
                      .code(),
                  ErrorCode::kFunctionDisabled)
            << disabled;
      }
    }
  }
}

// --- Thread activity monitoring ---

TEST_F(MapperTest, GuardTracksActiveThreadCounts) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  {
    auto g1 = mapper_.Acquire("f", CallOrigin::kExternal);
    ASSERT_TRUE(g1.ok());
    EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 1);
    {
      auto g2 = mapper_.Acquire("f", CallOrigin::kExternal);
      EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 2);
      EXPECT_EQ(mapper_.TotalActive(), 2);
    }
    EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 1);
  }
  EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 0);
}

TEST_F(MapperTest, GuardMoveTransfersOwnership) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  auto g1 = mapper_.Acquire("f", CallOrigin::kExternal);
  ASSERT_TRUE(g1.ok());
  DynamicFunctionMapper::CallGuard g2 = std::move(*g1);
  EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 1) << "still one call";
  g2.Release();
  EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 0);
  g2.Release();  // double release is harmless
  EXPECT_EQ(mapper_.ActiveCount("f", comp_a_.id), 0);
}

TEST_F(MapperTest, RemoveComponentBlockedByActiveThreads) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  auto guard = mapper_.Acquire("f", CallOrigin::kExternal);
  ASSERT_TRUE(guard.ok());

  Status blocked = mapper_.RemoveComponent(comp_a_.id);
  EXPECT_EQ(blocked.code(), ErrorCode::kActiveThreads);
  guard->Release();
  EXPECT_TRUE(mapper_.RemoveComponent(comp_a_.id).ok());
}

TEST_F(MapperTest, ForcePolicyRemovesDespiteActiveThreads) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  auto guard = mapper_.Acquire("f", CallOrigin::kExternal);
  ASSERT_TRUE(guard.ok());
  EXPECT_TRUE(
      mapper_.RemoveComponent(comp_a_.id, ActiveThreadPolicy::kForce).ok());
  // The paper's observation: the in-flight call can still finish, because
  // the guard holds the body alive even though the table row is gone.
  NullContext ctx;
  auto result = guard->body()(ctx, ByteBuffer::FromString("y"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libA.f:y");
}

// A thread can proceed inside a *disabled* function; only new calls are
// rejected. ("There is no reason why a thread cannot proceed inside a
// deactivated function.")
TEST_F(MapperTest, DisableDoesNotAffectInFlightCalls) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  auto guard = mapper_.Acquire("f", CallOrigin::kExternal);
  ASSERT_TRUE(guard.ok());

  ASSERT_TRUE(mapper_.DisableFunction("f", comp_a_.id).ok());
  // New calls rejected...
  EXPECT_EQ(mapper_.Acquire("f", CallOrigin::kExternal).status().code(),
            ErrorCode::kFunctionDisabled);
  // ...but the in-flight one still runs.
  NullContext ctx;
  EXPECT_TRUE(guard->body()(ctx, ByteBuffer{}).ok());
}

// Disable deferred while a *dependent* function is executing — the paper's
// combination of activity monitoring with dependencies.
TEST_F(MapperTest, DisableBlockedWhileDependentActive) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(mapper_.EnableFunction("g", comp_a_.id).ok());
  ASSERT_TRUE(mapper_.AddDependency(
      Dependency::TypeA("f", comp_a_.id, "g")).ok());

  auto guard = mapper_.Acquire("f", CallOrigin::kExternal);  // f is running
  ASSERT_TRUE(guard.ok());
  Status blocked = mapper_.DisableFunction("g", comp_a_.id,
                                           /*respect_active_dependents=*/true);
  EXPECT_EQ(blocked.code(), ErrorCode::kActiveThreads);

  guard->Release();
  // With f idle the dependency still *exists*, so the disable now fails on
  // the dependency check instead (f is still enabled).
  EXPECT_EQ(mapper_.DisableFunction("g", comp_a_.id).code(),
            ErrorCode::kDependencyViolation);
  ASSERT_TRUE(mapper_.DisableFunction("f", comp_a_.id).ok());
  EXPECT_TRUE(mapper_.DisableFunction("g", comp_a_.id).ok());
}

TEST_F(MapperTest, SwitchChangesWhichBodyRuns) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_b_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  EXPECT_EQ(CallThrough("f"), "libA.f:x");
  ASSERT_TRUE(mapper_.SwitchImplementation("f", comp_b_.id).ok());
  EXPECT_EQ(CallThrough("f"), "libB.f:x");
}

// --- CommitConfiguration (evolution) ---

TEST_F(MapperTest, CommitFlipsToTheTarget) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_b_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());

  DfmState target;
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(target.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_b_.id).ok());  // switched
  ASSERT_TRUE(target.EnableFunction("g", comp_a_.id).ok());  // newly on

  ASSERT_TRUE(Commit(target, /*enforce_marks=*/true).ok());
  EXPECT_EQ(CallThrough("f"), "libB.f:x");
  EXPECT_EQ(CallThrough("g"), "libA.g:x");
}

TEST_F(MapperTest, CommitRequiresEveryComponentStagedOrIncorporated) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  DfmState target;
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(target.IncorporateComponent(comp_b_).ok());
  std::vector<DynamicFunctionMapper::ResolvedComponent> none;
  EXPECT_EQ(mapper_.CommitConfiguration(target, none, true).code(),
            ErrorCode::kComponentMissing);
  EXPECT_FALSE(mapper_.state().HasComponent(comp_b_.id));
}

TEST_F(MapperTest, CommitEnforcesPermanentWhenAsked) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.MarkPermanent("f", comp_a_.id).ok());

  DfmState target;  // target has f disabled
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());

  EXPECT_EQ(Commit(target, /*enforce_marks=*/true).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_EQ(CallThrough("f"), "libA.f:x");
  // The general-evolution policy may force it through.
  EXPECT_TRUE(Commit(target, /*enforce_marks=*/false).ok());
  EXPECT_EQ(mapper_.state().EnabledImpl("f"), nullptr);
}

TEST_F(MapperTest, CommitEnforcesMandatoryWhenAsked) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(mapper_.MarkMandatory("f").ok());

  DfmState target;
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());  // all disabled
  EXPECT_EQ(Commit(target, true).code(), ErrorCode::kMandatoryViolation);
  EXPECT_EQ(CallThrough("f"), "libA.f:x");
}

TEST_F(MapperTest, CommitReplacesTheDependencySet) {
  ASSERT_TRUE(mapper_.IncorporateComponent(comp_a_, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.AddDependency(Dependency::TypeD("f", "g")).ok());

  DfmState target;
  ASSERT_TRUE(target.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_a_.id).ok());
  // Target dropped the dependency, so f alone is fine after the commit.
  ASSERT_TRUE(Commit(target, true).ok());
  EXPECT_EQ(mapper_.state().dependencies().size(), 0u);
  EXPECT_EQ(CallThrough("f"), "libA.f:x");
}

TEST_F(MapperTest, RemapBodiesForNewArchitecture) {
  // A symbol with two native builds.
  auto dual = ComponentBuilder("dual")
                  .SetType(ImplementationType::Portable())
                  .AddFunction("f", "v()", "dual/f")
                  .Build();
  ASSERT_TRUE(dual.ok());
  registry_.Register("dual/f",
                     ImplementationType::Native(sim::Architecture::kX86Linux),
                     [](CallContext&, const ByteBuffer&) {
                       return Result<ByteBuffer>(
                           ByteBuffer::FromString("x86-body"));
                     });
  registry_.Register(
      "dual/f", ImplementationType::Native(sim::Architecture::kSparcSolaris),
      [](CallContext&, const ByteBuffer&) {
        return Result<ByteBuffer>(ByteBuffer::FromString("sparc-body"));
      });

  ASSERT_TRUE(mapper_.IncorporateComponent(*dual, registry_, kArch).ok());
  ASSERT_TRUE(mapper_.EnableFunction("f", dual->id).ok());
  EXPECT_EQ(CallThrough("f"), "x86-body");

  ASSERT_TRUE(
      mapper_.RemapBodies(registry_, sim::Architecture::kSparcSolaris).ok());
  EXPECT_EQ(CallThrough("f"), "sparc-body");
}

}  // namespace
}  // namespace dcdo
