#include "core/manager.h"

#include <gtest/gtest.h>

#include "rpc/client.h"
#include "runtime/fom.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

// Builds a manager for type "svc" with two published components:
//   core-v1 implementing {serve, helper}, and core-v2 implementing {serve}.
// Version 1   = {core-v1: serve+helper enabled}   (instantiable)
// Version 1.1 = v1 but serve switched to core-v2  (instantiable)
class ManagerTest : public ::testing::Test {
 protected:
  void Init(std::unique_ptr<EvolutionPolicy> policy) {
    manager_ = std::make_unique<DcdoManager>(
        "svc", testbed_.host(0), &testbed_.transport(), &testbed_.agent(),
        &testbed_.registry(), std::move(policy));

    comp_v1_ = testing::MakeEchoComponent(testbed_.registry(), "core-v1",
                                          {"serve", "helper"});
    comp_v2_ = testing::MakeEchoComponent(testbed_.registry(), "core-v2",
                                          {"serve"});
    // Publishing assigns no new ids (the component id is the ICO name).
    ASSERT_TRUE(manager_->PublishComponent(comp_v1_).ok());
    ASSERT_TRUE(manager_->PublishComponent(comp_v2_).ok());

    auto root = manager_->CreateRootVersion();
    ASSERT_TRUE(root.ok());
    v1_ = *root;
    auto d1 = manager_->MutableDescriptor(v1_);
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE((*d1)->IncorporateComponent(comp_v1_).ok());
    ASSERT_TRUE((*d1)->EnableFunction("serve", comp_v1_.id).ok());
    ASSERT_TRUE((*d1)->EnableFunction("helper", comp_v1_.id).ok());
    ASSERT_TRUE(manager_->MarkInstantiable(v1_).ok());

    auto derived = manager_->DeriveVersion(v1_);
    ASSERT_TRUE(derived.ok());
    v11_ = *derived;
    auto d11 = manager_->MutableDescriptor(v11_);
    ASSERT_TRUE(d11.ok());
    ASSERT_TRUE((*d11)->IncorporateComponent(comp_v2_).ok());
    ASSERT_TRUE((*d11)->SwitchImplementation("serve", comp_v2_.id).ok());
    ASSERT_TRUE(manager_->MarkInstantiable(v11_).ok());

    ASSERT_TRUE(manager_->SetCurrentVersion(v1_).ok());
  }

  Result<ObjectId> CreateBlocking(std::size_t host_index = 1) {
    std::optional<Result<ObjectId>> out;
    manager_->CreateInstance(testbed_.host(host_index),
                             [&](Result<ObjectId> result) {
                               out.emplace(std::move(result));
                             });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("create never completed"));
  }

  Status RunBlocking(std::function<void(DcdoManager::DoneCallback)> op) {
    std::optional<Status> out;
    op([&](Status status) { out = status; });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("operation never completed"));
  }

  // Destroys every instance, in flight or not, `seconds` from now.
  void DestroyAllAfter(double seconds) {
    testbed_.simulation().Schedule(sim::SimDuration::Seconds(seconds), [&] {
      for (const DcdoManager::TableEntry& entry : manager_->Table()) {
        ASSERT_TRUE(manager_->DestroyInstance(entry.id).ok());
      }
    });
  }

  // Creates an instance on host 1 and expects a destroy to end it.
  void ExpectCreateEndsNotFound() {
    int calls = 0;
    Status status;
    manager_->CreateInstance(testbed_.host(1), [&](Result<ObjectId> result) {
      ++calls;
      status = result.status();
    });
    testbed_.simulation().Run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status;
    EXPECT_EQ(manager_->instance_count(), 0u);
  }

  // Destroys the manager `seconds` from now, counting its instances first.
  void ResetManagerAfter(double seconds) {
    testbed_.simulation().Schedule(sim::SimDuration::Seconds(seconds), [&] {
      instances_at_reset_ = manager_->instance_count();
      manager_.reset();
    });
  }

  // Runs `op` until the event queue is empty, the manager being destroyed
  // meanwhile: `done` runs once with kNotFound, no Fom is left live, and no
  // process, endpoint or binding is left on the testbed.
  void ExpectResetEndsNotFound(
      const std::function<void(DcdoManager::DoneCallback)>& op) {
    int calls = 0;
    Status status;
    op([&](Status result) {
      ++calls;
      status = result;
    });
    testbed_.simulation().Run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status;
    EXPECT_EQ(runtime::FomScheduler::For(testbed_.simulation()).live_count(),
              0u);
    EXPECT_EQ(testbed_.transport().endpoint_count(), 0u);
    EXPECT_EQ(testbed_.agent().size(), 0u);
    for (std::size_t host = 0; host < testbed_.host_count(); ++host) {
      EXPECT_EQ(testbed_.host(host)->process_count(), 0u) << "host " << host;
    }
  }

  Testbed testbed_;
  std::unique_ptr<DcdoManager> manager_;
  std::size_t instances_at_reset_ = 0;
  ImplementationComponent comp_v1_;
  ImplementationComponent comp_v2_;
  VersionId v1_;
  VersionId v11_;
};

TEST_F(ManagerTest, VersionLifecycle) {
  Init(MakeSingleVersionExplicit());
  EXPECT_EQ(manager_->Versions().size(), 2u);
  EXPECT_EQ(manager_->current_version(), v1_);
  // Only one root allowed.
  EXPECT_EQ(manager_->CreateRootVersion().status().code(),
            ErrorCode::kAlreadyExists);
  // Deriving from a missing version fails.
  EXPECT_FALSE(manager_->DeriveVersion(VersionId{9, 9}).ok());
  // Sibling ordinals increment.
  auto sibling = manager_->DeriveVersion(v1_);
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling->ToString(), "1.2");
}

TEST_F(ManagerTest, CurrentVersionMustBeInstantiable) {
  Init(MakeSingleVersionExplicit());
  auto configurable = manager_->DeriveVersion(v1_);
  ASSERT_TRUE(configurable.ok());
  EXPECT_EQ(manager_->SetCurrentVersion(*configurable).code(),
            ErrorCode::kVersionNotInstantiable);
}

TEST_F(ManagerTest, CreateInstanceRunsCurrentVersion) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(manager_->instance_count(), 1u);
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);

  Dcdo* object = manager_->FindInstance(*instance);
  ASSERT_NE(object, nullptr);
  auto result = object->Call("serve", ByteBuffer::FromString("req"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "core-v1.serve:req");
}

TEST_F(ManagerTest, CreateWithoutCurrentVersionFails) {
  manager_ = std::make_unique<DcdoManager>(
      "empty", testbed_.host(0), &testbed_.transport(), &testbed_.agent(),
      &testbed_.registry(), MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  EXPECT_EQ(instance.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(ManagerTest, CreateAtConfigurableVersionFails) {
  Init(MakeMultiVersionGeneral());
  auto configurable = manager_->DeriveVersion(v1_);
  ASSERT_TRUE(configurable.ok());
  std::optional<Result<ObjectId>> out;
  manager_->CreateInstanceAt(*configurable, testbed_.host(1),
                             [&](Result<ObjectId> result) {
                               out.emplace(std::move(result));
                             });
  testbed_.simulation().RunWhile([&] { return !out.has_value(); });
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status().code(), ErrorCode::kVersionNotInstantiable);
}

TEST_F(ManagerTest, ExplicitUpdateBringsInstanceToCurrent) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  // Explicit policy: nothing happens until someone asks.
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);

  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->UpdateInstance(*instance, std::move(done));
              }).ok());
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v11_);

  Dcdo* object = manager_->FindInstance(*instance);
  auto result = object->Call("serve", ByteBuffer::FromString("req"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "core-v2.serve:req") << "new implementation";
}

TEST_F(ManagerTest, ExplicitUpdateViaRpc) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());

  auto client = testbed_.MakeClient(3);
  Writer writer;
  writer.WriteObjectId(*instance);
  auto reply = client->InvokeBlocking(manager_->id(), "mgr.updateInstance",
                                      std::move(writer).Take());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v11_);
}

TEST_F(ManagerTest, ProactivePushUpdatesAllInstances) {
  Init(MakeSingleVersionProactive());
  std::vector<ObjectId> instances;
  for (int i = 0; i < 4; ++i) {
    auto instance = CreateBlocking(1 + i);
    ASSERT_TRUE(instance.ok());
    instances.push_back(*instance);
  }
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  testbed_.simulation().Run();  // let the pushed evolutions complete
  for (const ObjectId& instance : instances) {
    EXPECT_EQ(manager_->InstanceVersion(instance).value_or(VersionId()), v11_);
  }
  EXPECT_EQ(manager_->updates_pushed(), 4u);
}

TEST_F(ManagerTest, LazyEveryCallUpdatesOnNextInvocation) {
  Init(MakeSingleVersionLazyEveryCall());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);

  Dcdo* object = manager_->FindInstance(*instance);
  auto result = object->Call("serve", ByteBuffer::FromString("x"));
  ASSERT_TRUE(result.ok());
  // The lazy check ran before the call; evolution had no new components to
  // fetch (v11's core-v2 was cached at create time? no — fetched now), so
  // the call may have been served at either version, but the instance must
  // reach v11 once the simulation settles.
  testbed_.simulation().Run();
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v11_);
  EXPECT_GE(manager_->lazy_checks(), 1u);
  EXPECT_EQ(manager_->lazy_updates(), 1u);
}

TEST_F(ManagerTest, LazyEveryKChecksOnlyEveryKCalls) {
  Init(MakeSingleVersionLazyEveryK(5));
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());

  Dcdo* object = manager_->FindInstance(*instance);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(object->Call("serve", ByteBuffer{}).ok());
  }
  EXPECT_EQ(manager_->lazy_checks(), 0u) << "4 calls: below the threshold";
  ASSERT_TRUE(object->Call("serve", ByteBuffer{}).ok());  // 5th call
  testbed_.simulation().Run();
  EXPECT_EQ(manager_->lazy_checks(), 1u);
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v11_);
}

TEST_F(ManagerTest, NoUpdatePolicyFreezesDeployedInstances) {
  Init(MakeMultiVersionNoUpdate());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  Status status = RunBlocking([&](DcdoManager::DoneCallback done) {
    manager_->EvolveInstanceTo(*instance, v11_, std::move(done));
  });
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);
  // But new instances pick up the new current version.
  auto fresh = CreateBlocking(2);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(manager_->InstanceVersion(*fresh).value_or(VersionId()), v11_);
}

TEST_F(ManagerTest, IncreasingVersionRejectsSiblings) {
  Init(MakeMultiVersionIncreasing());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());

  // Build a sibling version 1.2 (not derived from 1.1 — but IS derived from
  // the instance's version 1, so evolving to it is fine)...
  auto v12 = manager_->DeriveVersion(v1_);
  ASSERT_TRUE(v12.ok());
  ASSERT_TRUE(manager_->MarkInstantiable(*v12).ok());
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->EvolveInstanceTo(*instance, *v12, std::move(done));
              }).ok());
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), *v12);

  // ...but from 1.2 the sibling 1.1 is not a descendant: rejected.
  Status status = RunBlocking([&](DcdoManager::DoneCallback done) {
    manager_->EvolveInstanceTo(*instance, v11_, std::move(done));
  });
  EXPECT_EQ(status.code(), ErrorCode::kNotDerivedVersion);
}

TEST_F(ManagerTest, TableReportsVersionsAndNodes) {
  Init(MakeSingleVersionExplicit());
  auto a = CreateBlocking(1);
  auto b = CreateBlocking(2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto table = manager_->Table();
  ASSERT_EQ(table.size(), 2u);
  for (const auto& entry : table) {
    EXPECT_EQ(entry.version, v1_);
    EXPECT_GE(entry.node, 2u);
    EXPECT_LE(entry.node, 3u);
  }
}

TEST_F(ManagerTest, MigrationMovesAndKeepsServing) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(1);
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  object->mutable_state().logical_size = 256 * 1024;

  Status status = RunBlocking([&](DcdoManager::DoneCallback done) {
    manager_->MigrateInstance(*instance, testbed_.host(7), std::move(done));
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(object->address().node, testbed_.host(7)->node());
  auto result = object->Call("serve", ByteBuffer::FromString("post-move"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "core-v1.serve:post-move");
}

// Creation, evolution and migration all leave the instance on its version
// descriptor's own component records.
TEST_F(ManagerTest, InstancesShareTheirVersionsRecords) {
  Init(MakeMultiVersionIncreasing());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  auto shares_records_of = [&](const VersionId& version) {
    const DfmState& descriptor = (*manager_->Descriptor(version))->state();
    const DfmState& state = object->mapper().state();
    if (state.component_count() != descriptor.component_count()) return false;
    for (const ComponentRecord& record : state.components()) {
      if (record != descriptor.SharedComponent(record->id)) return false;
    }
    return true;
  };
  EXPECT_TRUE(shares_records_of(v1_));
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->EvolveInstanceTo(*instance, v11_, std::move(done));
              }).ok());
  EXPECT_TRUE(shares_records_of(v11_));
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->MigrateInstance(*instance, testbed_.host(7),
                                          std::move(done));
              }).ok());
  EXPECT_TRUE(shares_records_of(v11_));
}

TEST_F(ManagerTest, LazyOnMigrateUpdatesDuringMigration) {
  Init(MakeSingleVersionLazyOnMigrate());
  auto instance = CreateBlocking(1);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  // Calls do not trigger updates under this policy.
  Dcdo* object = manager_->FindInstance(*instance);
  ASSERT_TRUE(object->Call("serve", ByteBuffer{}).ok());
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);

  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->MigrateInstance(*instance, testbed_.host(5),
                                          std::move(done));
              }).ok());
  testbed_.simulation().Run();
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v11_);
}

TEST_F(ManagerTest, NameServicePublishesComponentsAndInstances) {
  Init(MakeSingleVersionExplicit());
  // Attach after publishing: components are bound retroactively.
  ASSERT_TRUE(manager_->AttachNameService(&testbed_.names()).ok());
  EXPECT_TRUE(testbed_.names().IsName("/types/svc/manager"));
  EXPECT_EQ(
      testbed_.names().Lookup("/types/svc/components/core-v1").value_or(
          ObjectId()),
      comp_v1_.id);
  EXPECT_EQ(
      testbed_.names().Lookup("/types/svc/components/core-v2").value_or(
          ObjectId()),
      comp_v2_.id);

  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  auto instances = testbed_.names().List("/types/svc/instances");
  ASSERT_TRUE(instances.ok());
  ASSERT_EQ(instances->size(), 1u);
  EXPECT_EQ(testbed_.names()
                .Lookup("/types/svc/instances/" + (*instances)[0])
                .value_or(ObjectId()),
            *instance);

  ASSERT_TRUE(manager_->DestroyInstance(*instance).ok());
  EXPECT_FALSE(testbed_.names().IsDirectory("/types/svc/instances"));
}

TEST_F(ManagerTest, HistoryRecordsEvolutions) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(manager_->History().empty())
      << "creation is not an evolution event";

  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->UpdateInstance(*instance, std::move(done));
              }).ok());

  ASSERT_EQ(manager_->History().size(), 1u);
  const DcdoManager::EvolutionEvent& event = manager_->History()[0];
  EXPECT_EQ(event.instance, *instance);
  EXPECT_EQ(event.from, v1_);
  EXPECT_EQ(event.to, v11_);
  EXPECT_TRUE(event.status.ok());
  EXPECT_GT(event.duration.nanos(), 0);
}

TEST_F(ManagerTest, HistoryRecordsFailedEvolutions) {
  Init(MakeMultiVersionNoUpdate());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  // Policy-rejected evolutions never reach the instance, so they are not
  // history events...
  Status rejected = RunBlocking([&](DcdoManager::DoneCallback done) {
    manager_->EvolveInstanceTo(*instance, v11_, std::move(done));
  });
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(manager_->History().empty());
}

TEST_F(ManagerTest, DeactivateReactivateLifecycle) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  object->mutable_state().data = ByteBuffer::FromString("precious");

  // A client warms its binding before the object goes to sleep.
  auto client = testbed_.MakeClient(5);
  ASSERT_TRUE(client->InvokeBlocking(*instance, "serve").ok());

  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->DeactivateInstance(*instance, std::move(done));
              }).ok());
  EXPECT_FALSE(object->active());
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
  EXPECT_EQ(object->Call("serve", ByteBuffer{}).status().code(),
            ErrorCode::kUnavailable);
  // Idempotent.
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->DeactivateInstance(*instance, std::move(done));
              }).ok());

  std::uint64_t old_epoch = object->address().epoch;
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->ReactivateInstance(*instance, std::move(done));
              }).ok());
  EXPECT_TRUE(object->active());
  EXPECT_GT(object->address().epoch, old_epoch);
  EXPECT_EQ(object->mutable_state().data.ToString(), "precious")
      << "state survived the deactivation cycle";
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);

  // The pre-deactivation client holds a stale (old-epoch) binding: its next
  // call pays the stale-binding discovery before reaching the new
  // activation.
  sim::SimTime start = testbed_.simulation().Now();
  auto reply = client->InvokeBlocking(*instance, "serve");
  ASSERT_TRUE(reply.ok());
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GE(seconds, 25.0);
  EXPECT_LE(seconds, 35.0);
  EXPECT_EQ(client->rebinds(), 1u);
}

TEST_F(ManagerTest, DeactivateRefusedWhileThreadsExecute) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  testbed_.registry().Register(
      "core-v1/serve", ImplementationType::Portable(),
      [](CallContext& ctx, const ByteBuffer&) {
        ctx.BlockOnOutcall(2.0);
        return Result<ByteBuffer>(ByteBuffer{});
      });
  ASSERT_TRUE(object->RemapForHost().ok());

  Status deactivation = InternalError("not attempted");
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.0), [&] {
    manager_->DeactivateInstance(*instance,
                                 [&](Status status) { deactivation = status; });
  });
  ASSERT_TRUE(object->Call("serve", ByteBuffer{}).ok());
  testbed_.simulation().Run();
  EXPECT_EQ(deactivation.code(), ErrorCode::kActiveThreads);
  EXPECT_TRUE(object->active());
}

// A host that goes down while an instance's shell spawns starts nothing:
// the create reports kUnavailable, once, and leaves no instance behind.
TEST_F(ManagerTest, CreateWhoseHostDiesMidSpawnFails) {
  Init(MakeSingleVersionExplicit());
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    testbed_.host(1)->SetUp(false);
  });
  int calls = 0;
  Status status;
  manager_->CreateInstance(testbed_.host(1), [&](Result<ObjectId> result) {
    ++calls;
    status = result.status();
  });
  testbed_.simulation().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status;
  EXPECT_EQ(manager_->instance_count(), 0u);
}

// The same for a reactivation: the instance stays deactivated and unbound.
TEST_F(ManagerTest, ReactivateWhoseHostDiesMidSpawnFails) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunBlocking([&](DcdoManager::DoneCallback done) {
                manager_->DeactivateInstance(*instance, std::move(done));
              }).ok());
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(0.5), [&] {
    testbed_.host(1)->SetUp(false);
  });
  int calls = 0;
  Status status;
  manager_->ReactivateInstance(*instance, [&](Status result) {
    ++calls;
    status = result;
  });
  testbed_.simulation().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status;
  EXPECT_FALSE(manager_->FindInstance(*instance)->active());
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
}

// A destroy during an operation on the instance wins: the operation ends
// kNotFound, once, and touches nothing of the destroyed object. Creation
// spawns its shell until 1.62 s, applies its version until 1.79 s (core-v1
// streams in) and completes its activation handshake at 2.04 s.
TEST_F(ManagerTest, DestroyDuringColdEvolutionEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  // 10 ms in, core-v2 is still streaming to the instance's host.
  DestroyAllAfter(0.01);
  int calls = 0;
  Status status;
  manager_->EvolveInstanceTo(*instance, v11_, [&](Status result) {
    ++calls;
    status = result;
  });
  testbed_.simulation().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status;
  EXPECT_EQ(manager_->instance_count(), 0u);
}

// The same for an incorporate into a managed instance: the 550 KB image
// lands after the destroy and finds its object gone.
TEST_F(ManagerTest, DestroyDuringIncorporateEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  auto extra = testing::MakeEchoComponent(testbed_.registry(), "extra",
                                          {"extra"}, /*code_bytes=*/550'000);
  ASSERT_TRUE(manager_->PublishComponent(extra).ok());
  // 10 ms in, the image is still streaming to the instance's host.
  DestroyAllAfter(0.01);
  int calls = 0;
  Status status;
  manager_->FindInstance(*instance)->IncorporateComponent(
      extra.id, [&](Status result) {
        ++calls;
        status = result;
      });
  testbed_.simulation().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound) << status;
  EXPECT_EQ(runtime::FomScheduler::For(testbed_.simulation()).live_count(),
            0u);
}

TEST_F(ManagerTest, DestroyDuringCreationApplyEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  DestroyAllAfter(1.7);
  ExpectCreateEndsNotFound();
}

TEST_F(ManagerTest, DestroyDuringActivationHandshakeEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  DestroyAllAfter(2.0);
  ExpectCreateEndsNotFound();
}

// Destroying the manager ends each of its operations kNotFound, once, with
// nothing of the instance left behind: 0.5 s into a create its shell is
// still spawning; 1.7 s in, core-v1 streams to the new instance.
TEST_F(ManagerTest, ResetDuringCreationSpawnEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  ResetManagerAfter(0.5);
  ExpectResetEndsNotFound([&](DcdoManager::DoneCallback done) {
    manager_->CreateInstance(testbed_.host(1), [done](Result<ObjectId> r) {
      done(r.status());
    });
  });
}

TEST_F(ManagerTest, ResetDuringCreationApplyEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  ResetManagerAfter(1.7);
  ExpectResetEndsNotFound([&](DcdoManager::DoneCallback done) {
    manager_->CreateInstance(testbed_.host(1), [done](Result<ObjectId> r) {
      done(r.status());
    });
  });
  EXPECT_EQ(instances_at_reset_, 1u);
}

// 0.1 s into an evolution whose new 550 KB component still streams.
TEST_F(ManagerTest, ResetDuringColdEvolutionEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  auto big = testing::MakeEchoComponent(testbed_.registry(), "big", {"big"},
                                        /*code_bytes=*/550'000);
  ASSERT_TRUE(manager_->PublishComponent(big).ok());
  VersionId v12 = *manager_->DeriveVersion(v1_);
  DfmDescriptor* d12 = *manager_->MutableDescriptor(v12);
  ASSERT_TRUE(d12->IncorporateComponent(big).ok());
  ASSERT_TRUE(d12->EnableFunction("big", big.id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v12).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v12).ok());
  ResetManagerAfter(0.1);
  ExpectResetEndsNotFound([&](DcdoManager::DoneCallback done) {
    manager_->EvolveInstanceTo(*instance, v12, std::move(done));
  });
  EXPECT_EQ(instances_at_reset_, 1u);
}

// 0.1 s into a migration of 512 KB of state: captured, now transferring.
TEST_F(ManagerTest, ResetDuringMigrationEndsNotFound) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  manager_->FindInstance(*instance)->mutable_state().logical_size = 512 * 1024;
  ResetManagerAfter(0.1);
  ExpectResetEndsNotFound([&](DcdoManager::DoneCallback done) {
    manager_->MigrateInstance(*instance, testbed_.host(2), std::move(done));
  });
  EXPECT_EQ(instances_at_reset_, 1u);
}

// An instance that moves while its evolution acquires fails the evolution:
// its staged bodies belong to the host it left. It stays at its version and
// serves from its new host.
TEST_F(ManagerTest, MigrationDuringEvolutionFailsTheEvolution) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  // The move rebinds the instance 1.80 s in; the evolution starts 0.1 s
  // before that, and core-v2 lands at the source 0.07 s after it. Both
  // images wait at the destination, so core-v2 still stages there.
  testbed_.host(2)->CacheComponent(comp_v1_.id, comp_v1_.code_bytes);
  testbed_.host(2)->CacheComponent(comp_v2_.id, comp_v2_.code_bytes);
  std::optional<Status> evolved;
  std::optional<Status> migrated;
  manager_->MigrateInstance(*instance, testbed_.host(2),
                            [&](Status status) { migrated = status; });
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1.7), [&] {
    manager_->EvolveInstanceTo(*instance, v11_,
                               [&](Status status) { evolved = status; });
  });
  testbed_.simulation().Run();
  ASSERT_TRUE(migrated.has_value() && evolved.has_value());
  EXPECT_TRUE(migrated->ok()) << *migrated;
  EXPECT_EQ(evolved->code(), ErrorCode::kFailedPrecondition) << *evolved;
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);
  Dcdo* object = manager_->FindInstance(*instance);
  EXPECT_EQ(&object->host(), testbed_.host(2));
  auto served = object->Call("serve", ByteBuffer::FromString("x"));
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->ToString(), "core-v1.serve:x");
}

TEST_F(ManagerTest, DestroyInstanceRemovesFromTable) {
  Init(MakeSingleVersionExplicit());
  auto instance = CreateBlocking();
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(manager_->DestroyInstance(*instance).ok());
  EXPECT_EQ(manager_->instance_count(), 0u);
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
}

}  // namespace
}  // namespace dcdo
