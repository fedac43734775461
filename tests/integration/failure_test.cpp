// Failure injection: hosts dying, partitions forming, and managers coping.
// A wide-area system's evolution machinery must degrade cleanly when the
// network does not cooperate.
#include <gtest/gtest.h>

#include "core/manager.h"
#include "core/proxy.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  void InitManager(std::unique_ptr<EvolutionPolicy> policy) {
    manager_ = std::make_unique<DcdoManager>(
        "svc", testbed_.host(0), &testbed_.transport(), &testbed_.agent(),
        &testbed_.registry(), std::move(policy));
    comp_v1_ = testing::MakeEchoComponent(testbed_.registry(), "c-v1",
                                          {"serve"});
    comp_v2_ = testing::MakeEchoComponent(testbed_.registry(), "c-v2",
                                          {"serve"});
    ASSERT_TRUE(manager_->PublishComponent(comp_v1_).ok());
    ASSERT_TRUE(manager_->PublishComponent(comp_v2_).ok());
    v1_ = *manager_->CreateRootVersion();
    auto d1 = *manager_->MutableDescriptor(v1_);
    ASSERT_TRUE(d1->IncorporateComponent(comp_v1_).ok());
    ASSERT_TRUE(d1->EnableFunction("serve", comp_v1_.id).ok());
    ASSERT_TRUE(manager_->MarkInstantiable(v1_).ok());
    ASSERT_TRUE(manager_->SetCurrentVersion(v1_).ok());

    v11_ = *manager_->DeriveVersion(v1_);
    auto d11 = *manager_->MutableDescriptor(v11_);
    ASSERT_TRUE(d11->IncorporateComponent(comp_v2_).ok());
    ASSERT_TRUE(d11->SwitchImplementation("serve", comp_v2_.id).ok());
    ASSERT_TRUE(manager_->MarkInstantiable(v11_).ok());
  }

  Result<ObjectId> CreateBlocking(std::size_t host_index) {
    std::optional<Result<ObjectId>> out;
    manager_->CreateInstance(testbed_.host(host_index),
                             [&](Result<ObjectId> result) {
                               out.emplace(std::move(result));
                             });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("create never completed"));
  }

  Testbed testbed_;
  std::unique_ptr<DcdoManager> manager_;
  ImplementationComponent comp_v1_;
  ImplementationComponent comp_v2_;
  VersionId v1_, v11_;
};

TEST_F(FailureTest, CallToPartitionedObjectTimesOut) {
  InitManager(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(2);
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(5);
  ASSERT_TRUE(client->InvokeBlocking(*instance, "serve").ok());

  // Cut the client's host off from the object's host. The binding agent
  // still advertises the same (reachable-in-principle) address, so the
  // client retries, rebinds to the same place, retries again, and finally
  // reports a timeout.
  testbed_.network().SetPartitioned(testbed_.host(5)->node(),
                                    testbed_.host(2)->node(), true);
  auto result = client->InvokeBlocking(*instance, "serve");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);

  // Healing the partition restores service without any repair action.
  testbed_.network().SetPartitioned(testbed_.host(5)->node(),
                                    testbed_.host(2)->node(), false);
  EXPECT_TRUE(client->InvokeBlocking(*instance, "serve").ok());
}

TEST_F(FailureTest, HostDeathMakesInstanceUnavailableUntilMigration) {
  InitManager(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(2);
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(5);
  ASSERT_TRUE(client->InvokeBlocking(*instance, "serve").ok());

  testbed_.host(2)->SetUp(false);
  auto result = client->InvokeBlocking(*instance, "serve");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST_F(FailureTest, ProactivePushSurvivesOnePartitionedInstance) {
  InitManager(MakeSingleVersionProactive());
  std::vector<ObjectId> instances;
  for (std::size_t i = 2; i <= 5; ++i) {
    auto instance = CreateBlocking(i);
    ASSERT_TRUE(instance.ok());
    instances.push_back(*instance);
  }
  // Partition host 3's instance from the ICO home (host 0) so its component
  // fetch during the push cannot complete.
  testbed_.network().SetPartitioned(testbed_.host(0)->node(),
                                    testbed_.host(3)->node(), true);
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  testbed_.simulation().RunUntil(testbed_.simulation().Now() +
                                 sim::SimDuration::Seconds(120));

  int at_new = 0;
  for (const ObjectId& instance : instances) {
    if (manager_->InstanceVersion(instance).value_or(VersionId()) == v11_) {
      ++at_new;
    }
  }
  EXPECT_EQ(at_new, 3) << "the partitioned instance lags; the rest converge";

  // Heal and update explicitly: the straggler catches up.
  testbed_.network().SetPartitioned(testbed_.host(0)->node(),
                                    testbed_.host(3)->node(), false);
  std::optional<Status> updated;
  manager_->UpdateInstance(instances[1],
                           [&](Status status) { updated = status; });
  testbed_.simulation().RunWhile([&] { return !updated.has_value(); });
  ASSERT_TRUE(updated.has_value());
  EXPECT_TRUE(updated->ok());
  EXPECT_EQ(manager_->InstanceVersion(instances[1]).value_or(VersionId()),
            v11_);
}

TEST_F(FailureTest, EvolutionToUnresolvableComponentFailsCleanly) {
  InitManager(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(2);
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  // What a caller can observe: the version, the components, the enabled
  // implementation of every function either version knows and the outcome
  // of a call to each.
  auto observe = [&] {
    std::string seen = object->version().ToString();
    for (const ObjectId& id : object->GetComponents()) {
      seen += " " + id.ToString();
    }
    for (const std::string function : {"serve", "spook", "u"}) {
      const DfmEntry* impl = object->mapper().state().EnabledImpl(function);
      seen += " " + function + "@" +
              (impl == nullptr ? "none" : impl->component.ToString());
      auto result = object->Call(function, ByteBuffer::FromString("x"));
      seen += "=" + (result.ok() ? result->ToString()
                                 : result.status().ToString());
    }
    return seen;
  };
  const std::string before = observe();

  // A version referencing a component that was never published (no ICO):
  // evolution fails with kComponentMissing and the instance is untouched.
  auto ghost = testing::MakeEchoComponent(testbed_.registry(), "ghost",
                                          {"spook"});
  VersionId v12 = *manager_->DeriveVersion(v1_);
  auto d12 = *manager_->MutableDescriptor(v12);
  ASSERT_TRUE(d12->IncorporateComponent(ghost).ok());
  ASSERT_TRUE(d12->EnableFunction("spook", ghost.id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v12).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v12).ok());

  std::optional<Status> evolved;
  manager_->EvolveInstanceTo(*instance, v12,
                             [&](Status status) { evolved = status; });
  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved.has_value());
  EXPECT_EQ(evolved->code(), ErrorCode::kComponentMissing);
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1_);
  EXPECT_TRUE(object->Call("serve", ByteBuffer{}).ok()) << "still serving";
  EXPECT_EQ(observe(), before);

  // A version whose last component cannot be mapped: c-v2 lands and is
  // staged first, then the unresolvable symbol fails the evolution, and the
  // instance is exactly as it was, c-v2 nowhere in its table.
  auto unresolved = ComponentBuilder("unresolved")
                        .AddFunction("u", "b(b)", "nowhere/u")
                        .Build();
  ASSERT_TRUE(unresolved.ok());
  ASSERT_TRUE(manager_->PublishComponent(*unresolved).ok());
  VersionId v13 = *manager_->DeriveVersion(v1_);
  auto d13 = *manager_->MutableDescriptor(v13);
  ASSERT_TRUE(d13->IncorporateComponent(comp_v2_).ok());
  ASSERT_TRUE(d13->SwitchImplementation("serve", comp_v2_.id).ok());
  ASSERT_TRUE(d13->IncorporateComponent(*unresolved).ok());
  ASSERT_TRUE(d13->EnableFunction("u", unresolved->id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v13).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v13).ok());
  evolved.reset();
  manager_->EvolveInstanceTo(*instance, v13,
                             [&](Status status) { evolved = status; });
  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved.has_value());
  EXPECT_EQ(evolved->code(), ErrorCode::kNotFound) << *evolved;
  EXPECT_EQ(evolved->message(), "unresolved symbol 'nowhere/u'");
  EXPECT_TRUE(testbed_.host(2)->ComponentCached(comp_v2_.id));
  EXPECT_EQ(observe(), before);
}

TEST_F(FailureTest, ProxySurvivesEvolutionDuringPartition) {
  InitManager(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(2);
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(5);
  DcdoProxy proxy(client.get(), *instance);
  ASSERT_TRUE(proxy.Call("serve", ByteBuffer{}).ok());

  // The object evolves while the client is partitioned away; on healing,
  // the proxy's named call picks up the new implementation transparently.
  testbed_.network().SetPartitioned(testbed_.host(5)->node(),
                                    testbed_.host(2)->node(), true);
  ASSERT_TRUE(manager_->SetCurrentVersion(v11_).ok());
  std::optional<Status> evolved;
  manager_->EvolveInstanceTo(*instance, v11_,
                             [&](Status status) { evolved = status; });
  testbed_.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved->ok());
  testbed_.network().SetPartitioned(testbed_.host(5)->node(),
                                    testbed_.host(2)->node(), false);

  auto result = proxy.Call("serve", ByteBuffer::FromString("q"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "c-v2.serve:q");
}

TEST_F(FailureTest, MessagesDroppedDuringPartitionAreCounted) {
  InitManager(MakeSingleVersionExplicit());
  auto instance = CreateBlocking(2);
  ASSERT_TRUE(instance.ok());
  std::uint64_t dropped_before = testbed_.network().messages_dropped();
  testbed_.network().SetPartitioned(testbed_.host(5)->node(),
                                    testbed_.host(2)->node(), true);
  auto client = testbed_.MakeClient(5);
  (void)client->InvokeBlocking(*instance, "serve");
  EXPECT_GT(testbed_.network().messages_dropped(), dropped_before);
}

}  // namespace
}  // namespace dcdo
