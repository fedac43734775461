// Parameterized property sweeps over system invariants:
//   * DFM invariants hold under randomized mutation sequences,
//   * every single-version update policy converges all instances to the
//     current version,
//   * evolution between any two versions in a derivation chain preserves
//     the exported-interface contract implied by mandatory marks.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>

#include "core/manager.h"
#include "dfm/descriptor_wire.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

// ===== DFM invariants under randomized mutations =====
//
// Every op lands on a standalone DfmState, on a DynamicFunctionMapper and
// on a configurable DfmDescriptor, which must all accept and reject it with
// the same code. After each op the mapper's slot table, patched one touched
// slot at a time, must resolve every function exactly as a fresh mapper
// whose slots were all derived at once (the mapper's table committed onto
// an empty one). Copies never alias: a copy of the state and a
// version derived from the descriptor (and frozen when complete), both
// taken before the op, must read exactly as they did when taken.

constexpr auto kFuzzArch = sim::Architecture::kX86Linux;

// Everything a copy of a configuration shows: every row's bits and the
// exported interface.
std::string Fingerprint(const DfmState& state) {
  std::ostringstream out;
  for (const DfmEntry& entry : state.entries()) {
    out << entry.name() << '@' << entry.component << ' '
        << VisibilityName(entry.visibility) << ' ' << entry.enabled << ' '
        << entry.permanent << ' ' << entry.symbol() << '\n';
  }
  for (const FunctionSignature& fn : state.ExportedInterface()) {
    out << "exported " << fn << '\n';
  }
  return out.str();
}

// ... plus, for a descriptor, its wire image.
std::string Fingerprint(const DfmDescriptor& descriptor) {
  return Fingerprint(descriptor.state()) +
         SerializeDescriptor(descriptor).ToString();
}

// What a call to `function` resolves to: "ok <component>" or the error code.
std::string AcquireOutcome(DynamicFunctionMapper& mapper,
                           const std::string& function, CallOrigin origin) {
  auto guard = mapper.Acquire(function, origin);
  if (!guard.ok()) return std::string(ErrorCodeName(guard.status().code()));
  return "ok " + guard->component().ToString();
}

// Bodies for the components of `target` that `mapper` lacks.
std::vector<DynamicFunctionMapper::ResolvedComponent> Stage(
    const DynamicFunctionMapper& mapper, const DfmState& target,
    const NativeCodeRegistry& registry) {
  std::vector<DynamicFunctionMapper::ResolvedComponent> staged;
  for (const ComponentRecord& record : target.components()) {
    if (mapper.state().HasComponent(record->id)) continue;
    auto bodies =
        DynamicFunctionMapper::ResolveComponent(*record, registry, kFuzzArch);
    EXPECT_TRUE(bodies.ok()) << bodies.status();
    if (bodies.ok()) staged.push_back(*std::move(bodies));
  }
  return staged;
}

Status CommitTo(DynamicFunctionMapper& mapper, const DfmState& target,
                const NativeCodeRegistry& registry, bool enforce_marks) {
  DfmState table = target;
  std::vector<DynamicFunctionMapper::ResolvedComponent> staged =
      Stage(mapper, target, registry);
  return mapper.CommitConfiguration(table, staged, enforce_marks);
}

class DfmFuzzProperty : public ::testing::TestWithParam<int> {};

TEST_P(DfmFuzzProperty, InvariantsHoldUnderRandomMutations) {
  std::mt19937 rng(GetParam());
  NativeCodeRegistry registry;
  DfmState state;
  DynamicFunctionMapper mapper;
  DfmDescriptor descriptor(VersionId::Root());

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
      for (const DfmEntry& entry : state.entries()) {
        if (entry.name() == fn && entry.enabled) ++enabled;
      }
      EXPECT_LE(enabled, 1) << "function " << fn;
    }
    // Invariant 2: no binding dependency is violated.
    EXPECT_TRUE(state.dependencies().Validate(state.Enabled()).ok());
    // Invariant 3: every enabled entry's component is incorporated.
    for (const DfmEntry& entry : state.entries()) {
      EXPECT_TRUE(state.HasComponent(entry.component));
    }
    // Invariant 4: permanent entries are enabled.
    for (const DfmEntry& entry : state.entries()) {
      if (entry.permanent) {
        EXPECT_TRUE(entry.enabled);
      }
    }
  };

  auto check_slots = [&](int step) {
    DynamicFunctionMapper fresh;
    ASSERT_TRUE(CommitTo(fresh, mapper.state(), registry, false).ok());
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
    // identically on every table.
    Status on_state;
    Status on_mapper;
    Status on_descriptor;
    auto every = [&](auto op) {
      on_state = op(state);
      on_mapper = op(mapper);
      on_descriptor = op(descriptor);
    };
    const DfmState copy = state;
    DfmDescriptor derived =
        descriptor.DeriveChild(VersionId{1, static_cast<std::uint32_t>(step)});
    (void)derived.MarkInstantiable();  // frozen whenever it is complete
    const std::string copy_before = Fingerprint(copy);
    const std::string derived_before = Fingerprint(derived);
    switch (op_dist(rng)) {
      case 0:
        on_state = state.IncorporateComponent(comp);
        on_mapper = mapper.IncorporateComponent(comp, registry, kFuzzArch);
        on_descriptor = descriptor.IncorporateComponent(comp);
        break;
      case 1:
        on_state = state.RemoveComponent(comp.id);
        on_mapper = mapper.RemoveComponent(comp.id);
        on_descriptor = descriptor.RemoveComponent(comp.id);
        break;
      case 2:
        every([&](auto& t) { return t.EnableFunction(fn, comp.id); });
        break;
      case 3:
        every([&](auto& t) { return t.DisableFunction(fn, comp.id); });
        break;
      case 4:
        every([&](auto& t) { return t.SwitchImplementation(fn, comp.id); });
        break;
      case 5:
        every([&](auto& t) {
          return t.AddDependency(Dependency::TypeD(fn, other_fn));
        });
        break;
      case 6: {
        auto deps = state.dependencies().all();
        if (!deps.empty()) {
          const Dependency dep = deps[step % deps.size()];
          every([&](auto& t) { return t.RemoveDependency(dep); });
        }
        break;
      }
      case 7: {
        const Visibility visibility =
            step % 2 == 0 ? Visibility::kInternal : Visibility::kExported;
        every([&](auto& t) { return t.SetVisibility(fn, comp.id, visibility); });
        break;
      }
      case 8:
        every([&](auto& t) { return t.MarkPermanent(fn, comp.id); });
        break;
      case 9:
        every([&](auto& t) { return t.MarkMandatory(fn); });
        break;
      case 10:
        every([&](auto& t) {
          return t.AddDependency(Dependency::TypeA(fn, comp.id, other_fn));
        });
        break;
      case 11:
        every([&](auto& t) {
          return t.AddDependency(
              Dependency::TypeB(fn, comp.id, other_fn, other_comp));
        });
        break;
      case 12:
        every([&](auto& t) {
          return t.AddDependency(Dependency::TypeC(fn, other_fn, other_comp));
        });
        break;
    }
    EXPECT_EQ(on_state.code(), on_mapper.code())
        << "step " << step << ": " << on_state << " vs " << on_mapper;
    EXPECT_EQ(on_state.code(), on_descriptor.code())
        << "step " << step << ": " << on_state << " vs " << on_descriptor;
    EXPECT_EQ(Fingerprint(copy), copy_before) << "step " << step;
    EXPECT_EQ(Fingerprint(derived), derived_before) << "step " << step;
    check_invariants();
    check_slots(step);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfmFuzzProperty, ::testing::Range(1, 9));

// ===== Committing a version's table =====
//
// Every evolution, creation included, commits its target's table in one
// step. Over pairs of random instantiable descriptors drawn from one pool
// of components — overlapping function sets, author marks, structural
// hints, enables, visibilities, marks and dependencies — committing `to`
// onto a mapper that holds `from` keeps, drops and adds components and
// makes functions leave, and must end in the table a commit of `to` onto
// an empty mapper makes: rows, dependencies, records, exported interface,
// and the outcome of every acquire by name and by id (under enforce_marks
// the live commit also carries `from`'s marks forward, so marks are
// compared only without it). The empty mapper may already hold slots (a
// component came and went), as a live object emptied by evolution does. A
// commit made to fail — a busy dropped component, a mark violation, a kept
// component removed meanwhile — leaves the table byte-identical.

// What a call to `function`'s id resolves to, like AcquireOutcome.
std::string AcquireByIdOutcome(DynamicFunctionMapper& mapper,
                               const std::string& function,
                               CallOrigin origin) {
  auto guard =
      mapper.Acquire(FunctionNameTable::Global().Find(function), origin);
  if (!guard.ok()) return std::string(ErrorCodeName(guard.status().code()));
  return "ok " + guard->component().ToString();
}

std::string Rows(const DfmState& state, bool with_marks = true) {
  std::ostringstream out;
  for (const DfmEntry& entry : state.entries()) {
    out << entry.name() << '@' << entry.component << ' ' << entry.impl << ' '
        << entry.function_id.value << ' ' << VisibilityName(entry.visibility)
        << ' ' << entry.enabled;
    if (with_marks) out << ' ' << entry.permanent;
    out << '\n';
  }
  for (const std::string& function : state.mandatory_functions()) {
    if (with_marks) out << "mandatory " << function << '\n';
  }
  for (const Dependency& dep : state.dependencies().all()) {
    out << "dep " << dep << '\n';
  }
  for (const ComponentRecord& record : state.components()) {
    out << "record " << record.get() << '\n';
  }
  for (const FunctionSignature& fn : state.ExportedInterface()) {
    out << "exported " << fn << '\n';
  }
  return out.str();
}

class InstallProperty : public ::testing::TestWithParam<int> {};

TEST_P(InstallProperty, MatchesIncorporateThenAdopt) {
  std::mt19937 rng(GetParam());
  NativeCodeRegistry registry;
  const std::vector<std::string> names{"a", "b", "c", "d", "e", "f", "g"};
  auto coin = [&](double p) {
    return std::bernoulli_distribution(p)(rng);
  };
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  // A leftover component whose slots an emptied mapper keeps.
  const ImplementationComponent leftover =
      testing::MakeEchoComponent(registry, "leftover", {"a", "g", "zz"});
  // The pool every version draws its components from.
  std::vector<ImplementationComponent> pool;
  for (int c = 0; c < 8; ++c) {
    const std::string name = "p" + std::to_string(c);
    ComponentBuilder builder(name);
    for (const std::string& fn : names) {
      if (!coin(0.45)) continue;
      const std::string symbol = name + "/" + fn;
      testing::RegisterEcho(registry, symbol, name + "." + fn);
      const Constraint constraint =
          coin(0.08)   ? Constraint::kPermanent
          : coin(0.08) ? Constraint::kMandatory
                       : Constraint::kFullyDynamic;
      std::vector<std::string> calls;
      if (coin(0.1)) calls.push_back(names[pick(names.size())]);
      builder.AddFunction(fn, "b(b)", symbol,
                          coin(0.3) ? Visibility::kInternal
                                    : Visibility::kExported,
                          constraint, std::move(calls));
    }
    auto built = builder.Build();
    if (built.ok()) pool.push_back(*std::move(built));  // drew a function
  }

  int compared = 0;
  int busy = 0;
  int marks = 0;
  int missing = 0;
  std::optional<DfmDescriptor> from;
  for (int round = 0; round < 48; ++round) {
    DfmDescriptor target(VersionId::Root().Child(round + 1));
    for (const ImplementationComponent& comp : pool) {
      if (coin(0.5)) (void)target.IncorporateComponent(comp, coin(0.5));
    }
    const std::vector<ObjectId> ids = target.state().ComponentIds();
    if (ids.empty()) continue;
    // Rejected configuration calls are part of the draw: whatever the
    // descriptor accepts is a configuration some version could have.
    for (int op = 0; op < 24; ++op) {
      const std::string& fn = names[pick(names.size())];
      const std::string& other = names[pick(names.size())];
      const ObjectId& comp = ids[pick(ids.size())];
      switch (pick(8)) {
        case 0:
        case 1:
        case 2:
          (void)target.EnableFunction(fn, comp);
          break;
        case 3:
          (void)target.SwitchImplementation(fn, comp);
          break;
        case 4:
          (void)target.SetVisibility(fn, comp,
                                     coin(0.5) ? Visibility::kInternal
                                               : Visibility::kExported);
          break;
        case 5:
          (void)target.MarkMandatory(fn);
          break;
        case 6:
          (void)target.MarkPermanent(fn, comp);
          break;
        case 7:
          (void)target.AddDependency(coin(0.5)
                                         ? Dependency::TypeD(fn, other)
                                         : Dependency::TypeC(fn, other, comp));
          break;
      }
    }
    // An author-marked mandatory function starts disabled: enable one of
    // its implementations where the dependencies allow.
    for (const std::string& fn : target.state().mandatory_functions()) {
      for (const DfmEntry& row : target.state().Rows(fn)) {
        if (target.EnableFunction(fn, row.component).ok()) break;
      }
    }
    if (!target.MarkInstantiable().ok()) continue;
    if (!from.has_value()) {
      from.emplace(std::move(target));
      continue;
    }
    const DfmState& to = target.state();
    const bool enforce_marks = coin(0.5);

    // The reference: `to` committed onto an empty mapper.
    DynamicFunctionMapper fresh;
    if (coin(0.5)) {
      ASSERT_TRUE(
          fresh.IncorporateComponent(leftover, registry, kFuzzArch).ok());
      ASSERT_TRUE(fresh.RemoveComponent(leftover.id).ok());
    }
    ASSERT_TRUE(CommitTo(fresh, to, registry, enforce_marks).ok());

    // The live route: `to` committed onto a mapper holding `from`.
    DynamicFunctionMapper live;
    ASSERT_TRUE(CommitTo(live, from->state(), registry, false).ok());
    const Status evolved = CommitTo(live, to, registry, enforce_marks);
    if (!evolved.ok()) {
      // Only carried marks can stop it: `from` holds a permanent
      // implementation or a mandatory function that `to` leaves disabled.
      EXPECT_TRUE(enforce_marks) << evolved;
      EXPECT_TRUE(evolved.code() == ErrorCode::kPermanentViolation ||
                  evolved.code() == ErrorCode::kMandatoryViolation)
          << evolved;
      EXPECT_EQ(Rows(live.state()), Rows(from->state())) << "round " << round;
      ++marks;
    } else {
      EXPECT_EQ(Rows(live.state(), !enforce_marks),
                Rows(fresh.state(), !enforce_marks))
          << "round " << round;
      std::vector<std::string> probes = names;
      probes.push_back("zz");
      probes.push_back("never-incorporated");
      for (const std::string& fn : probes) {
        for (CallOrigin origin :
             {CallOrigin::kExternal, CallOrigin::kInternal}) {
          EXPECT_EQ(AcquireOutcome(live, fn, origin),
                    AcquireOutcome(fresh, fn, origin))
              << "function " << fn << " in round " << round;
          EXPECT_EQ(AcquireByIdOutcome(live, fn, origin),
                    AcquireByIdOutcome(fresh, fn, origin))
              << "function " << fn << " in round " << round;
        }
      }
      ++compared;
    }

    // Commits made to fail, each onto a mapper holding `from`.
    DynamicFunctionMapper probe;
    ASSERT_TRUE(CommitTo(probe, from->state(), registry, false).ok());
    for (const DfmEntry& row : from->state().entries()) {
      // A thread inside a component `to` drops.
      if (!row.enabled || to.HasComponent(row.component)) continue;
      auto guard = probe.Acquire(row.name(), CallOrigin::kInternal);
      ASSERT_TRUE(guard.ok()) << guard.status();
      const std::string before = Rows(probe.state());
      EXPECT_EQ(CommitTo(probe, to, registry, false).code(),
                ErrorCode::kActiveThreads);
      EXPECT_EQ(Rows(probe.state()), before) << "round " << round;
      ++busy;
      break;
    }
    for (const DfmEntry& row : probe.state().entries()) {
      // A function made mandatory that `to` leaves without an enabled
      // implementation.
      if (to.EnabledImpl(row.name()) != nullptr ||
          !probe.MarkMandatory(row.name()).ok()) {
        continue;
      }
      const std::string before = Rows(probe.state());
      const Status violated = CommitTo(probe, to, registry, true);
      EXPECT_TRUE(violated.code() == ErrorCode::kMandatoryViolation ||
                  violated.code() == ErrorCode::kPermanentViolation)
          << violated;
      EXPECT_EQ(Rows(probe.state()), before) << "round " << round;
      ++marks;
      break;
    }
    // A kept component removed between staging and the commit.
    DfmState table = to;
    std::vector<DynamicFunctionMapper::ResolvedComponent> staged =
        Stage(probe, to, registry);
    for (const ComponentRecord& record : from->state().components()) {
      if (!to.HasComponent(record->id) ||
          !probe.RemoveComponent(record->id).ok()) {
        continue;
      }
      const std::string before = Rows(probe.state());
      EXPECT_EQ(probe.CommitConfiguration(table, staged, false).code(),
                ErrorCode::kComponentMissing);
      EXPECT_EQ(Rows(probe.state()), before) << "round " << round;
      ++missing;
      break;
    }
    from.emplace(std::move(target));
  }
  EXPECT_GE(compared, 8) << "too few draws were instantiable";
  EXPECT_GE(busy, 1);
  EXPECT_GE(marks, 1);
  EXPECT_GE(missing, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstallProperty, ::testing::Range(1, 9));

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
