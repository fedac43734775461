// Parameterized property sweeps over system invariants:
//   * DFM invariants hold under randomized mutation sequences,
//   * every single-version update policy converges all instances to the
//     current version,
//   * evolution between any two versions in a derivation chain preserves
//     the exported-interface contract implied by mandatory marks.
#include <gtest/gtest.h>

#include <random>

#include "core/manager.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

// ===== DFM invariants under randomized mutations =====
//
// Every op lands on a standalone DfmState and on a DynamicFunctionMapper,
// which must accept and reject it with the same code. After each op the
// mapper's slot table, patched one touched slot at a time, must resolve
// every function exactly as a fresh mapper whose slots were all derived at
// once (incorporate the same components, then AdoptConfiguration).

constexpr auto kFuzzArch = sim::Architecture::kX86Linux;

// What a call to `function` resolves to: "ok <component>" or the error code.
std::string AcquireOutcome(DynamicFunctionMapper& mapper,
                           const std::string& function, CallOrigin origin) {
  auto guard = mapper.Acquire(function, origin);
  if (!guard.ok()) return std::string(ErrorCodeName(guard.status().code()));
  return "ok " + guard->component().ToString();
}

class DfmFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(DfmFuzzProperty, InvariantsHoldUnderRandomMutations) {
  std::mt19937 rng(GetParam());
  NativeCodeRegistry registry;
  DfmState state;
  DynamicFunctionMapper mapper;

  // Pool: 4 components, overlapping function sets.
  std::vector<ImplementationComponent> pool;
  pool.push_back(testing::MakeEchoComponent(registry, "p0", {"a", "b"}));
  pool.push_back(testing::MakeEchoComponent(registry, "p1", {"b", "c"}));
  pool.push_back(testing::MakeEchoComponent(registry, "p2", {"a", "c", "d"}));
  pool.push_back(testing::MakeEchoComponent(registry, "p3", {"d"}));
  const std::vector<std::string> functions{"a", "b", "c", "d"};

  auto check_invariants = [&] {
    // Invariant 1: at most one enabled implementation per function.
    for (const std::string& fn : functions) {
      int enabled = 0;
      for (const DfmEntry* entry : state.AllEntries()) {
        if (entry->function.name == fn && entry->enabled) ++enabled;
      }
      EXPECT_LE(enabled, 1) << "function " << fn;
    }
    // Invariant 2: no binding dependency is violated.
    EXPECT_TRUE(state.dependencies().Validate(state.Enabled()).ok());
    // Invariant 3: every enabled entry's component is incorporated.
    for (const DfmEntry* entry : state.AllEntries()) {
      EXPECT_TRUE(state.HasComponent(entry->component));
    }
    // Invariant 4: permanent entries are enabled.
    for (const DfmEntry* entry : state.AllEntries()) {
      if (entry->permanent) {
        EXPECT_TRUE(entry->enabled);
      }
    }
  };

  auto check_slots = [&](int step) {
    DynamicFunctionMapper fresh;
    for (const ObjectId& id : mapper.state().ComponentIds()) {
      ASSERT_TRUE(fresh
                      .IncorporateComponent(*mapper.state().FindComponent(id),
                                            registry, kFuzzArch,
                                            /*auto_structural_deps=*/false)
                      .ok());
    }
    ASSERT_TRUE(fresh.AdoptConfiguration(mapper.state(), false).ok());
    for (const std::string& fn : functions) {
      for (CallOrigin origin : {CallOrigin::kExternal, CallOrigin::kInternal}) {
        EXPECT_EQ(AcquireOutcome(mapper, fn, origin),
                  AcquireOutcome(fresh, fn, origin))
            << "function " << fn << " at step " << step;
      }
    }
  };

  // Marks are sticky (a permanent impl pins its component, a mandatory
  // function can only be switched), so they are drawn rarely enough that
  // most of the run still exercises unconstrained flips.
  std::discrete_distribution<int> op_dist(
      {3, 3, 4, 4, 4, 1, 2, 2, 0.5, 0.5, 1, 1, 1});
  std::uniform_int_distribution<std::size_t> comp_dist(0, pool.size() - 1);
  std::uniform_int_distribution<std::size_t> fn_dist(0, functions.size() - 1);

  for (int step = 0; step < 300; ++step) {
    const ImplementationComponent& comp = pool[comp_dist(rng)];
    const std::string& fn = functions[fn_dist(rng)];
    const std::string& other_fn = functions[fn_dist(rng)];
    const ObjectId& other_comp = pool[comp_dist(rng)].id;
    // Illegal mutations must *fail cleanly* without breaking invariants, and
    // identically on both tables.
    Status on_state;
    Status on_mapper;
    auto both = [&](auto op) {
      on_state = op(state);
      on_mapper = op(mapper);
    };
    switch (op_dist(rng)) {
      case 0:
        on_state = state.IncorporateComponent(comp);
        on_mapper = mapper.IncorporateComponent(comp, registry, kFuzzArch);
        break;
      case 1:
        on_state = state.RemoveComponent(comp.id);
        on_mapper = mapper.RemoveComponent(comp.id);
        break;
      case 2:
        both([&](auto& t) { return t.EnableFunction(fn, comp.id); });
        break;
      case 3:
        both([&](auto& t) { return t.DisableFunction(fn, comp.id); });
        break;
      case 4:
        both([&](auto& t) { return t.SwitchImplementation(fn, comp.id); });
        break;
      case 5:
        both([&](auto& t) {
          return t.AddDependency(Dependency::TypeD(fn, other_fn));
        });
        break;
      case 6: {
        auto deps = state.dependencies().all();
        if (!deps.empty()) {
          const Dependency dep = deps[step % deps.size()];
          both([&](auto& t) { return t.RemoveDependency(dep); });
        }
        break;
      }
      case 7: {
        const Visibility visibility =
            step % 2 == 0 ? Visibility::kInternal : Visibility::kExported;
        both([&](auto& t) { return t.SetVisibility(fn, comp.id, visibility); });
        break;
      }
      case 8:
        both([&](auto& t) { return t.MarkPermanent(fn, comp.id); });
        break;
      case 9:
        both([&](auto& t) { return t.MarkMandatory(fn); });
        break;
      case 10:
        both([&](auto& t) {
          return t.AddDependency(Dependency::TypeA(fn, comp.id, other_fn));
        });
        break;
      case 11:
        both([&](auto& t) {
          return t.AddDependency(
              Dependency::TypeB(fn, comp.id, other_fn, other_comp));
        });
        break;
      case 12:
        both([&](auto& t) {
          return t.AddDependency(Dependency::TypeC(fn, other_fn, other_comp));
        });
        break;
    }
    EXPECT_EQ(on_state.code(), on_mapper.code())
        << "step " << step << ": " << on_state << " vs " << on_mapper;
    check_invariants();
    check_slots(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfmFuzzProperty, ::testing::Range(1, 9));

// ===== Policy convergence =====

struct PolicyCase {
  const char* label;
  std::unique_ptr<EvolutionPolicy> (*make)();

  // gtest would otherwise print the struct's bytes, which begin with the
  // label's address and so change whenever the binary's read-only data
  // moves; the printed value is part of each case's ctest name.
  friend void PrintTo(const PolicyCase& policy, std::ostream* os) {
    *os << policy.label;
  }
};

std::unique_ptr<EvolutionPolicy> MakeLazyK3() {
  return MakeSingleVersionLazyEveryK(3);
}
std::unique_ptr<EvolutionPolicy> MakeLazyPeriodic10s() {
  return MakeSingleVersionLazyPeriodic(sim::SimDuration::Seconds(10));
}

class PolicyConvergence : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyConvergence, AllInstancesReachCurrentVersion) {
  Testbed testbed;
  DcdoManager manager("conv", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      GetParam().make());

  auto comp = testing::MakeEchoComponent(testbed.registry(), "base",
                                         {"serve"});
  ASSERT_TRUE(manager.PublishComponent(comp).ok());
  VersionId v1 = *manager.CreateRootVersion();
  auto d1 = *manager.MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(comp).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", comp.id).ok());
  ASSERT_TRUE(manager.MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager.SetCurrentVersion(v1).ok());

  std::vector<ObjectId> instances;
  for (int i = 0; i < 6; ++i) {
    std::optional<Result<ObjectId>> out;
    manager.CreateInstance(testbed.host(1 + (i % 4)),
                           [&](Result<ObjectId> result) {
                             out.emplace(std::move(result));
                           });
    testbed.simulation().RunWhile([&] { return !out.has_value(); });
    ASSERT_TRUE(out->ok());
    instances.push_back(out->value());
  }

  // New current version: disable nothing, just re-derive (a pure version
  // bump keeps the diff trivial so convergence is purely policy-driven).
  VersionId v11 = *manager.DeriveVersion(v1);
  ASSERT_TRUE(manager.MarkInstantiable(v11).ok());
  ASSERT_TRUE(manager.SetCurrentVersion(v11).ok());

  // Drive the system: time passes, instances get called, explicit updates
  // are requested. Whatever the policy, everyone must converge.
  for (int round = 0; round < 5; ++round) {
    testbed.simulation().AdvanceInline(sim::SimDuration::Seconds(11));
    for (const ObjectId& instance : instances) {
      Dcdo* object = manager.FindInstance(instance);
      ASSERT_NE(object, nullptr);
      (void)object->Call("serve", ByteBuffer{});
      std::optional<Status> updated;
      manager.UpdateInstance(instance,
                             [&](Status status) { updated = status; });
      testbed.simulation().RunWhile([&] { return !updated.has_value(); });
    }
    testbed.simulation().Run();
  }

  for (const ObjectId& instance : instances) {
    EXPECT_EQ(manager.InstanceVersion(instance).value_or(VersionId()), v11)
        << "policy " << GetParam().label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyConvergence,
    ::testing::Values(
        PolicyCase{"proactive", &MakeSingleVersionProactive},
        PolicyCase{"explicit", &MakeSingleVersionExplicit},
        PolicyCase{"lazy-every-call", &MakeSingleVersionLazyEveryCall},
        PolicyCase{"lazy-k3", &MakeLazyK3},
        PolicyCase{"lazy-periodic", &MakeLazyPeriodic10s}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ===== Derivation-chain evolution preserves mandatory functions =====

class ChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainProperty, MandatoryFunctionSurvivesWholeChain) {
  int chain_length = GetParam();
  Testbed testbed;
  DcdoManager manager("chain", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeMultiVersionIncreasing());

  auto core = testing::MakeEchoComponent(testbed.registry(), "core",
                                         {"must", "extra"});
  ASSERT_TRUE(manager.PublishComponent(core).ok());
  VersionId version = *manager.CreateRootVersion();
  auto d = *manager.MutableDescriptor(version);
  ASSERT_TRUE(d->IncorporateComponent(core).ok());
  ASSERT_TRUE(d->EnableFunction("must", core.id).ok());
  ASSERT_TRUE(d->EnableFunction("extra", core.id).ok());
  ASSERT_TRUE(d->MarkMandatory("must").ok());
  ASSERT_TRUE(manager.MarkInstantiable(version).ok());
  ASSERT_TRUE(manager.SetCurrentVersion(version).ok());

  std::optional<Result<ObjectId>> created;
  manager.CreateInstance(testbed.host(1), [&](Result<ObjectId> result) {
    created.emplace(std::move(result));
  });
  testbed.simulation().RunWhile([&] { return !created.has_value(); });
  ASSERT_TRUE(created->ok());
  ObjectId instance = created->value();

  // Derive a chain, alternately toggling "extra"; "must" is untouchable.
  for (int i = 0; i < chain_length; ++i) {
    VersionId child = *manager.DeriveVersion(version);
    DfmDescriptor* descriptor = *manager.MutableDescriptor(child);
    if (i % 2 == 0) {
      ASSERT_TRUE(descriptor->DisableFunction("extra", core.id).ok());
    } else {
      ASSERT_TRUE(descriptor->EnableFunction("extra", core.id).ok());
    }
    // Dropping "must" from a derived version must be impossible to freeze.
    Status illegal = descriptor->DisableFunction("must", core.id);
    EXPECT_EQ(illegal.code(), ErrorCode::kMandatoryViolation);
    ASSERT_TRUE(manager.MarkInstantiable(child).ok());

    std::optional<Status> evolved;
    manager.EvolveInstanceTo(instance, child,
                             [&](Status status) { evolved = status; });
    testbed.simulation().RunWhile([&] { return !evolved.has_value(); });
    ASSERT_TRUE(evolved->ok());
    version = child;

    // The mandatory function is always callable at every version.
    Dcdo* object = manager.FindInstance(instance);
    auto result = object->Call("must", ByteBuffer{});
    ASSERT_TRUE(result.ok()) << "at version " << version.ToString();
  }
  EXPECT_EQ(manager.InstanceVersion(instance).value_or(VersionId()).depth(),
            static_cast<std::size_t>(chain_length) + 1);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, ChainProperty,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace dcdo
