#include "core/coordinator.h"

#include <gtest/gtest.h>

#include "runtime/fom.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

// Two object types ("front" and "back") that must change protocol together.
class CoordinatorTest : public ::testing::Test {
 protected:
  struct TypeSetup {
    std::unique_ptr<DcdoManager> manager;
    ImplementationComponent comp_v1;
    ImplementationComponent comp_v2;
    VersionId v1, v2;
    ObjectId instance;
  };

  void SetUp() override {
    front_ = MakeType("front", 1);
    back_ = MakeType("back", 2);
  }

  TypeSetup MakeType(const std::string& name, std::size_t host,
                     std::unique_ptr<EvolutionPolicy> policy = nullptr,
                     std::size_t v2_bytes = 64 * 1024) {
    if (policy == nullptr) policy = MakeMultiVersionIncreasing();
    TypeSetup setup;
    setup.comp_v1 = testing::MakeEchoComponent(testbed_.registry(),
                                               name + "-v1", {"serve"});
    setup.comp_v2 = testing::MakeEchoComponent(
        testbed_.registry(), name + "-v2", {"serve"}, v2_bytes);
    setup.manager = std::make_unique<DcdoManager>(
        name, testbed_.host(0), &testbed_.transport(), &testbed_.agent(),
        &testbed_.registry(), std::move(policy));
    EXPECT_TRUE(setup.manager->PublishComponent(setup.comp_v1).ok());
    EXPECT_TRUE(setup.manager->PublishComponent(setup.comp_v2).ok());
    setup.v1 = *setup.manager->CreateRootVersion();
    DfmDescriptor* d1 = *setup.manager->MutableDescriptor(setup.v1);
    EXPECT_TRUE(d1->IncorporateComponent(setup.comp_v1).ok());
    EXPECT_TRUE(d1->EnableFunction("serve", setup.comp_v1.id).ok());
    EXPECT_TRUE(setup.manager->MarkInstantiable(setup.v1).ok());
    EXPECT_TRUE(setup.manager->SetCurrentVersion(setup.v1).ok());

    setup.v2 = *setup.manager->DeriveVersion(setup.v1);
    DfmDescriptor* d2 = *setup.manager->MutableDescriptor(setup.v2);
    EXPECT_TRUE(d2->IncorporateComponent(setup.comp_v2).ok());
    EXPECT_TRUE(d2->SwitchImplementation("serve", setup.comp_v2.id).ok());
    EXPECT_TRUE(setup.manager->MarkInstantiable(setup.v2).ok());

    bool done = false;
    setup.manager->CreateInstance(testbed_.host(host),
                                  [&](Result<ObjectId> result) {
                                    EXPECT_TRUE(result.ok());
                                    setup.instance = *result;
                                    done = true;
                                  });
    testbed_.simulation().RunWhile([&] { return !done; });
    // Cache the v2 images so the coordinated switch is flip-cheap.
    testbed_.host(host)->CacheComponent(setup.comp_v2.id,
                                        setup.comp_v2.code_bytes);
    return setup;
  }

  UpdateCoordinator::Outcome ExecuteBlocking(
      UpdateCoordinator& coordinator,
      std::vector<UpdateCoordinator::Step> steps) {
    std::optional<UpdateCoordinator::Outcome> out;
    coordinator.Execute(std::move(steps),
                        [&](UpdateCoordinator::Outcome outcome) {
                          out.emplace(std::move(outcome));
                        });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value();
  }

  VersionId VersionOf(const TypeSetup& setup) {
    return setup.manager->InstanceVersion(setup.instance).value_or(
        VersionId());
  }

  Testbed testbed_;
  TypeSetup front_;
  TypeSetup back_;
};

TEST_F(CoordinatorTest, BatchUpdatesBothTypes) {
  UpdateCoordinator coordinator;
  auto outcome = ExecuteBlocking(
      coordinator, {{front_.manager.get(), front_.instance, front_.v2},
                    {back_.manager.get(), back_.instance, back_.v2}});
  ASSERT_TRUE(outcome.ok()) << outcome.status;
  EXPECT_EQ(outcome.applied, 2u);
  EXPECT_EQ(outcome.rolled_back, 0u);
  EXPECT_EQ(VersionOf(front_), front_.v2);
  EXPECT_EQ(VersionOf(back_), back_.v2);
  // Compatibility notes were produced for both steps.
  ASSERT_EQ(outcome.notes.size(), 2u);
  EXPECT_NE(outcome.notes[0].find("behavioral"), std::string::npos);
}

TEST_F(CoordinatorTest, ValidationRejectsWholeBatchUpFront) {
  // Second step targets a configurable (unfrozen) version: nothing at all
  // may change.
  VersionId configurable = *back_.manager->DeriveVersion(back_.v1);
  UpdateCoordinator coordinator;
  auto outcome = ExecuteBlocking(
      coordinator, {{front_.manager.get(), front_.instance, front_.v2},
                    {back_.manager.get(), back_.instance, configurable}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kVersionNotInstantiable);
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(VersionOf(front_), front_.v1) << "front untouched";
  EXPECT_EQ(VersionOf(back_), back_.v1);
}

TEST_F(CoordinatorTest, PolicyViolationsCaughtInValidation) {
  // Evolving back_ to a sibling of its current version violates the
  // increasing-version policy.
  VersionId sibling = *back_.manager->DeriveVersion(back_.v1);
  ASSERT_TRUE(back_.manager->MarkInstantiable(sibling).ok());
  // Move back_ to v2 first so the sibling is no longer derived from it.
  UpdateCoordinator coordinator;
  auto first = ExecuteBlocking(
      coordinator, {{back_.manager.get(), back_.instance, back_.v2}});
  ASSERT_TRUE(first.ok());

  auto outcome = ExecuteBlocking(
      coordinator, {{front_.manager.get(), front_.instance, front_.v2},
                    {back_.manager.get(), back_.instance, sibling}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kNotDerivedVersion);
  EXPECT_EQ(VersionOf(front_), front_.v1) << "batch rejected atomically";
}

TEST_F(CoordinatorTest, RequireCompatibleRejectsBreakingTransition) {
  // A v3 for front that drops serve() from the interface entirely.
  VersionId v3 = *front_.manager->DeriveVersion(front_.v2);
  DfmDescriptor* d3 = *front_.manager->MutableDescriptor(v3);
  ASSERT_TRUE(d3->SetVisibility("serve", front_.comp_v2.id,
                                Visibility::kInternal).ok());
  ASSERT_TRUE(front_.manager->MarkInstantiable(v3).ok());
  // Move front to v2 so v3 is a legal (derived) target.
  UpdateCoordinator plain;
  ASSERT_TRUE(ExecuteBlocking(
      plain, {{front_.manager.get(), front_.instance, front_.v2}}).ok());

  UpdateCoordinator::Options options;
  options.require_client_compatible = true;
  UpdateCoordinator strict(options);
  auto outcome = ExecuteBlocking(
      strict, {{front_.manager.get(), front_.instance, v3}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(VersionOf(front_), front_.v2);

  // Without the strictness, the same step goes through.
  auto permissive = ExecuteBlocking(
      plain, {{front_.manager.get(), front_.instance, v3}});
  EXPECT_TRUE(permissive.ok());
}

TEST_F(CoordinatorTest, MidBatchFailureRollsBack) {
  // A type under the hybrid policy (any instantiable target), so rollback
  // to the prior version is legal.
  TypeSetup loose = MakeType("loose", 3, MakeMultiVersionHybrid());

  // Sabotage the second step: its target version needs a component whose
  // ICO is never published, so validation passes (descriptor exists,
  // instantiable, policy fine) but application fails at fetch time.
  auto ghost = testing::MakeEchoComponent(testbed_.registry(), "ghost",
                                          {"spook"});
  VersionId bad = *back_.manager->DeriveVersion(back_.v1);
  DfmDescriptor* d = *back_.manager->MutableDescriptor(bad);
  ASSERT_TRUE(d->IncorporateComponent(ghost).ok());
  ASSERT_TRUE(d->EnableFunction("spook", ghost.id).ok());
  ASSERT_TRUE(back_.manager->MarkInstantiable(bad).ok());

  UpdateCoordinator coordinator;
  auto outcome = ExecuteBlocking(
      coordinator, {{loose.manager.get(), loose.instance, loose.v2},
                    {back_.manager.get(), back_.instance, bad}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(outcome.rolled_back, 1u) << "loose's update was undone";
  EXPECT_EQ(VersionOf(loose), loose.v1);
  EXPECT_EQ(VersionOf(back_), back_.v1) << "back never moved";
}

TEST_F(CoordinatorTest, RollbackRefusalIsReportedHonestly) {
  // Same sabotage, but the first step's type uses the increasing-version
  // policy: the v2 -> v1 rollback is a downgrade and is refused. The
  // coordinator must leave the step applied and say so.
  auto ghost = testing::MakeEchoComponent(testbed_.registry(), "ghost2",
                                          {"spook"});
  VersionId bad = *back_.manager->DeriveVersion(back_.v1);
  DfmDescriptor* d = *back_.manager->MutableDescriptor(bad);
  ASSERT_TRUE(d->IncorporateComponent(ghost).ok());
  ASSERT_TRUE(d->EnableFunction("spook", ghost.id).ok());
  ASSERT_TRUE(back_.manager->MarkInstantiable(bad).ok());

  UpdateCoordinator coordinator;
  auto outcome = ExecuteBlocking(
      coordinator, {{front_.manager.get(), front_.instance, front_.v2},
                    {back_.manager.get(), back_.instance, bad}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.applied, 1u) << "front stayed at v2 (rollback refused)";
  EXPECT_EQ(outcome.rolled_back, 0u);
  EXPECT_EQ(VersionOf(front_), front_.v2);
  bool noted = false;
  for (const std::string& note : outcome.notes) {
    if (note.find("rollback") != std::string::npos &&
        note.find("refused") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted) << "the refused rollback is visible in the outcome";
}

// A manager destroyed while its batch runs. 0.1 s in, step 0 is still
// streaming its 550 KB component when step 1's manager goes: step 1 then
// fails kNotFound through its cut link without touching the manager, and
// the batch rolls step 0 back and reports once, with nothing left in flight.
TEST_F(CoordinatorTest, ManagerDestroyedMidBatchFailsItsStepOnce) {
  constexpr std::size_t kStreamed = 550 * 1024;
  TypeSetup first = MakeType("first", 3, MakeMultiVersionHybrid(), kStreamed);
  TypeSetup second =
      MakeType("second", 4, MakeMultiVersionHybrid(), kStreamed);
  testbed_.host(3)->EvictComponent(first.comp_v2.id);
  testbed_.host(4)->EvictComponent(second.comp_v2.id);

  int reports = 0;
  UpdateCoordinator::Outcome outcome;
  UpdateCoordinator coordinator;
  coordinator.Execute({{first.manager.get(), first.instance, first.v2},
                       {second.manager.get(), second.instance, second.v2}},
                      [&](UpdateCoordinator::Outcome result) {
                        ++reports;
                        outcome = std::move(result);
                      });
  testbed_.simulation().Schedule(sim::SimDuration::Millis(100),
                                 [&] { second.manager.reset(); });
  testbed_.simulation().Run();

  EXPECT_EQ(reports, 1);
  EXPECT_EQ(outcome.status.code(), ErrorCode::kFailedPrecondition)
      << outcome.status;
  EXPECT_NE(outcome.status.message().find("destroyed"), std::string::npos)
      << outcome.status;
  EXPECT_EQ(VersionOf(first), first.v1) << "step 0 was rolled back";
  EXPECT_EQ(outcome.applied, 0u);
  EXPECT_EQ(outcome.rolled_back, 1u);
  EXPECT_EQ(runtime::FomScheduler::For(testbed_.simulation()).live_count(),
            0u);
}

}  // namespace
}  // namespace dcdo
