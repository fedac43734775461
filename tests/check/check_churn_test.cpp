// Integration tests of the checking layer against the full runtime:
//
//   1. the headline race — an evolution under a timeout removal policy forces
//      a component out from under a parked invocation, and the checker
//      reports the precise happens-before violation;
//   2. randomized churn (modeled on integration/churn_test.cpp) with the
//      checker enabled at every-event cadence: a long run of legal operations
//      must leave the diagnostics sink free of errors.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "component/ico.h"
#include "core/dcdo.h"
#include "core/manager.h"
#include "instrument/context.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

using check::Checker;
using check::Severity;

// ===== The overlapping-evolution race =====
//
// A call parks inside component "app" on a 2 s outcall. At t = 0.5 s an
// evolution to a version without "app" starts under a 0.5 s timeout removal
// policy: the removal waits, times out, and forces while the call is still
// parked; the version then commits while the pre-evolution invocation is
// still running. The checker must report:
//
//   race-forced-removal        (error)   the forced removal overlapped the
//                                        live invocation;
//   race-overlapping-evolution (warning) the commit did not happen-after the
//                                        invocation epoch;
//   dfm-no-dangling            (warning) the parked thread kept executing
//                                        inside the retired component;
// and nothing else at error level, because every transition went through an
// instrumented path.
TEST(CheckChurnTest, EvolutionOverParkedCallReportsTheRace) {
  Testbed testbed;
  Checker* checker = testbed.checker();
  ASSERT_NE(checker, nullptr);

  testbed.registry().Register(
      "app/f", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer::FromString("survived"));
      });
  auto app = ComponentBuilder("app").AddFunction("f", "b(b)", "app/f").Build();
  ASSERT_TRUE(app.ok());
  ImplementationComponent lib_b =
      testing::MakeEchoComponent(testbed.registry(), "libB", {"f"});

  IcoDirectory icos;
  ImplementationComponentObject ico_app(testbed.host(0), &testbed.transport(),
                                        &testbed.agent(), *app);
  ImplementationComponentObject ico_b(testbed.host(0), &testbed.transport(),
                                      &testbed.agent(), lib_b);
  icos.Register(&ico_app);
  icos.Register(&ico_b);

  ComponentFetcher fetcher(&icos);
  Dcdo object("obj", testbed.host(1), &testbed.transport(), &testbed.agent(),
              &testbed.registry(), &icos, VersionId::Root(), &fetcher);
  testbed.host(1)->CacheComponent(app->id, app->code_bytes);
  ASSERT_TRUE(object.IncorporateCached(*app).ok());
  ASSERT_TRUE(object.EnableFunction("f", app->id).ok());

  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(lib_b).ok());
  ASSERT_TRUE(target.EnableFunction("f", lib_b.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());

  std::optional<Status> evolved;
  testbed.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    object.EvolveTo(target,
                    Dcdo::RemovalPolicy::Timeout(sim::SimDuration::Seconds(0.5)),
                    [&](Status status) { evolved = status; });
  });

  // Parks at t = 0; wakes at t = 2.0, well after the forced removal (~1.0)
  // and the version commit.
  auto result = object.Call("f", ByteBuffer{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "survived");
  testbed.RunAll();
  ASSERT_TRUE(evolved.has_value());
  ASSERT_TRUE(evolved->ok()) << *evolved;
  EXPECT_EQ(object.version(), VersionId::Root().Child(1));

  const check::Diagnostics& diag = checker->diagnostics();
  ASSERT_EQ(diag.CountFor("race-forced-removal"), 1u) << diag.DumpText();
  EXPECT_EQ(diag.For("race-forced-removal")[0]->severity, Severity::kError);
  EXPECT_EQ(diag.For("race-forced-removal")[0]->object, object.id());

  ASSERT_EQ(diag.CountFor("race-overlapping-evolution"), 1u)
      << diag.DumpText();
  const check::Diagnostic& overlap =
      *diag.For("race-overlapping-evolution")[0];
  EXPECT_EQ(overlap.severity, Severity::kWarning);
  EXPECT_EQ(overlap.version, VersionId::Root().Child(1));

  ASSERT_GE(diag.CountFor("dfm-no-dangling"), 1u) << diag.DumpText();
  EXPECT_EQ(diag.For("dfm-no-dangling")[0]->severity, Severity::kWarning);

  // The evolution itself was legal and serialized: no single-evolution or
  // version-monotonic violations, and the only error is the forced removal.
  EXPECT_EQ(diag.CountFor("single-evolution"), 0u);
  EXPECT_EQ(diag.CountFor("version-monotonic"), 0u);
  EXPECT_EQ(diag.errors(), 1u) << diag.DumpText();
}

// ===== Checked churn =====
//
// A compressed version of integration/churn_test.cpp (same operation mix,
// fewer steps) with the checker at its tightest cadence. Every operation is
// legal — evolutions are serialized, removals wait for quiescence — so the
// run must end with zero error-level diagnostics.
class CheckedChurn : public ::testing::TestWithParam<int> {};

TEST_P(CheckedChurn, LegalOperationsLeaveNoErrors) {
  std::mt19937 rng(GetParam());
  Testbed testbed;
  Checker* checker = testbed.checker();
  ASSERT_NE(checker, nullptr);

  DcdoManager manager("churn", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeMultiVersionIncreasing());
  ASSERT_TRUE(manager.AttachNameService(&testbed.names()).ok());

  std::vector<ImplementationComponent> pool;
  pool.push_back(testing::MakeEchoComponent(testbed.registry(), "q0",
                                            {"alpha", "beta"}));
  pool.push_back(testing::MakeEchoComponent(testbed.registry(), "q1",
                                            {"alpha"}));
  pool.push_back(testing::MakeEchoComponent(testbed.registry(), "q2",
                                            {"beta", "gamma"}));
  for (const ImplementationComponent& comp : pool) {
    ASSERT_TRUE(manager.PublishComponent(comp).ok());
  }

  VersionId root = *manager.CreateRootVersion();
  {
    DfmDescriptor* d = *manager.MutableDescriptor(root);
    ASSERT_TRUE(d->IncorporateComponent(pool[0]).ok());
    ASSERT_TRUE(d->EnableFunction("alpha", pool[0].id).ok());
    ASSERT_TRUE(manager.MarkInstantiable(root).ok());
    ASSERT_TRUE(manager.SetCurrentVersion(root).ok());
  }

  std::vector<ObjectId> instances;
  std::vector<VersionId> instantiable{root};
  std::vector<VersionId> configurable;

  auto create_instance = [&] {
    std::uniform_int_distribution<std::size_t> host_dist(1, 7);
    bool done = false;
    manager.CreateInstance(testbed.host(host_dist(rng)),
                           [&](Result<ObjectId> result) {
                             if (result.ok()) instances.push_back(*result);
                             done = true;
                           });
    testbed.simulation().RunWhile([&] { return !done; });
  };
  create_instance();

  std::uniform_int_distribution<int> op_dist(0, 6);
  for (int step = 0; step < 60; ++step) {
    switch (op_dist(rng)) {
      case 0: {  // derive a configurable version
        std::vector<VersionId> all = manager.Versions();
        std::uniform_int_distribution<std::size_t> pick(0, all.size() - 1);
        auto derived = manager.DeriveVersion(all[pick(rng)]);
        if (derived.ok()) configurable.push_back(*derived);
        break;
      }
      case 1: {  // randomly configure
        if (configurable.empty()) break;
        std::uniform_int_distribution<std::size_t> pick(
            0, configurable.size() - 1);
        auto descriptor = manager.MutableDescriptor(configurable[pick(rng)]);
        if (!descriptor.ok()) break;
        std::uniform_int_distribution<std::size_t> comp_pick(0,
                                                             pool.size() - 1);
        const ImplementationComponent& comp = pool[comp_pick(rng)];
        (void)(*descriptor)->IncorporateComponent(comp);
        if (!comp.functions.empty()) {
          (void)(*descriptor)
              ->SwitchImplementation(comp.functions[0].function.name,
                                     comp.id);
        }
        break;
      }
      case 2: {  // freeze
        if (configurable.empty()) break;
        std::uniform_int_distribution<std::size_t> pick(
            0, configurable.size() - 1);
        std::size_t index = pick(rng);
        if (manager.MarkInstantiable(configurable[index]).ok()) {
          instantiable.push_back(configurable[index]);
          configurable.erase(configurable.begin() +
                             static_cast<std::ptrdiff_t>(index));
        }
        break;
      }
      case 3: {  // designate current
        std::uniform_int_distribution<std::size_t> pick(
            0, instantiable.size() - 1);
        (void)manager.SetCurrentVersion(instantiable[pick(rng)]);
        break;
      }
      case 4: {  // evolve an instance
        if (instances.empty()) break;
        std::uniform_int_distribution<std::size_t> ipick(0,
                                                         instances.size() - 1);
        std::uniform_int_distribution<std::size_t> vpick(
            0, instantiable.size() - 1);
        bool done = false;
        manager.EvolveInstanceTo(instances[ipick(rng)],
                                 instantiable[vpick(rng)],
                                 [&](Status) { done = true; });
        testbed.simulation().RunWhile([&] { return !done; });
        break;
      }
      case 5: {  // call an instance
        if (instances.empty()) break;
        std::uniform_int_distribution<std::size_t> ipick(0,
                                                         instances.size() - 1);
        Dcdo* object = manager.FindInstance(instances[ipick(rng)]);
        const char* fns[] = {"alpha", "beta", "gamma"};
        std::uniform_int_distribution<int> fpick(0, 2);
        auto result = object->Call(fns[fpick(rng)], ByteBuffer{});
        if (!result.ok()) {
          ErrorCode code = result.status().code();
          ASSERT_TRUE(code == ErrorCode::kFunctionMissing ||
                      code == ErrorCode::kFunctionDisabled)
              << result.status();
        }
        break;
      }
      case 6: {  // create (rarely) or migrate
        if (instances.size() < 3) {
          create_instance();
        } else {
          std::uniform_int_distribution<std::size_t> ipick(
              0, instances.size() - 1);
          std::uniform_int_distribution<std::size_t> host_dist(1, 7);
          bool done = false;
          manager.MigrateInstance(instances[ipick(rng)],
                                  testbed.host(host_dist(rng)),
                                  [&](Status) { done = true; });
          testbed.simulation().RunWhile([&] { return !done; });
        }
        break;
      }
    }
    testbed.simulation().Run();
  }

  testbed.RunAll();
  checker->EvaluateAtEnd();
  EXPECT_GT(checker->evaluations(), 0u);
  EXPECT_TRUE(checker->diagnostics().Clean())
      << checker->diagnostics().DumpText();
  // The legal mix never forces a removal or lets versions move outside an
  // instrumented evolution.
  EXPECT_EQ(checker->diagnostics().CountFor("race-forced-removal"), 0u);
  EXPECT_EQ(checker->diagnostics().CountFor("version-monotonic"), 0u);
  EXPECT_EQ(checker->diagnostics().CountFor("thread-accounting"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckedChurn, ::testing::Range(1, 4));

}  // namespace
}  // namespace dcdo
