#include "runtime/class_object.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "rpc/client.h"
#include "runtime/fom.h"
#include "runtime/testbed.h"

namespace dcdo {
namespace {

// The paper's "typical" executable size for moderately sized Legion objects.
constexpr std::size_t kTypicalExecutable = 5'100'000;

Executable MakeExecutable(const std::string& name, std::size_t bytes,
                          const std::string& reply) {
  Executable executable;
  executable.name = name;
  executable.bytes = bytes;
  executable.methods.Add("whoami",
                         [reply](InstanceState&, const ByteBuffer&) {
                           return Result<ByteBuffer>(
                               ByteBuffer::FromString(reply));
                         });
  return executable;
}

class ClassObjectTest : public ::testing::Test {
 protected:
  ClassObjectTest()
      : class_object_("server", testbed_.host(0), &testbed_.transport(),
                      &testbed_.agent()) {
    v1_ = class_object_.AddExecutable(
        MakeExecutable("server-v1", kTypicalExecutable, "v1"));
    v2_ = class_object_.AddExecutable(
        MakeExecutable("server-v2", kTypicalExecutable, "v2"));
  }

  Result<ObjectId> CreateBlocking(sim::SimHost* host,
                                  std::size_t state_bytes = 0) {
    std::optional<Result<ObjectId>> out;
    class_object_.CreateInstance(host, state_bytes,
                                 [&](Result<ObjectId> result) {
                                   out.emplace(std::move(result));
                                 });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("create never completed"));
  }

  Status EvolveBlocking(const ObjectId& instance, std::size_t executable) {
    std::optional<Status> out;
    class_object_.EvolveInstance(instance, executable,
                                 [&](Status status) { out = status; });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("evolve never completed"));
  }

  // A class object of its own, for a test to destroy mid-operation. What the
  // testbed holds before it is the baseline ExpectDestroyEndsNotFound checks.
  ClassObject& MakeDoomed() {
    endpoints_ = testbed_.transport().endpoint_count();
    bindings_ = testbed_.agent().size();
    for (std::size_t host = 0; host < testbed_.host_count(); ++host) {
      processes_.push_back(testbed_.host(host)->process_count());
    }
    doomed_ = std::make_unique<ClassObject>(
        "doomed", testbed_.host(0), &testbed_.transport(), &testbed_.agent());
    doomed_->AddExecutable(
        MakeExecutable("doomed-v1", kTypicalExecutable, "v1"));
    return *doomed_;
  }

  // Runs `op`, destroying the doomed class object `seconds` in, until the
  // event queue is empty: `done` runs once with kNotFound, no Fom is left
  // live, and no process, endpoint or binding is left behind.
  void ExpectDestroyEndsNotFound(
      double seconds,
      const std::function<void(ClassObject::DoneCallback)>& op) {
    testbed_.simulation().Schedule(sim::SimDuration::Seconds(seconds),
                                   [&] { doomed_.reset(); });
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
    EXPECT_EQ(testbed_.transport().endpoint_count(), endpoints_);
    EXPECT_EQ(testbed_.agent().size(), bindings_);
    for (std::size_t host = 0; host < testbed_.host_count(); ++host) {
      EXPECT_EQ(testbed_.host(host)->process_count(), processes_[host])
          << "host " << host;
    }
  }

  Testbed testbed_;
  ClassObject class_object_;
  std::size_t v1_ = 0;
  std::size_t v2_ = 0;
  std::unique_ptr<ClassObject> doomed_;
  std::size_t endpoints_ = 0;
  std::size_t bindings_ = 0;
  std::vector<std::size_t> processes_;
};

// Paper: "creating an object with ... 500 functions that reside in a static
// monolithic executable takes only 2.2 seconds" — when the executable is
// already on the host.
TEST_F(ClassObjectTest, CreateOnHomeHostTakesAboutTwoSeconds) {
  sim::SimTime start = testbed_.simulation().Now();
  auto instance = CreateBlocking(testbed_.host(0));
  ASSERT_TRUE(instance.ok());
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GT(seconds, 1.8);
  EXPECT_LT(seconds, 2.6);
  EXPECT_EQ(class_object_.instance_count(), 1u);
}

TEST_F(ClassObjectTest, CreateOnRemoteHostPaysExecutableDownload) {
  sim::SimTime start = testbed_.simulation().Now();
  auto instance = CreateBlocking(testbed_.host(5));
  ASSERT_TRUE(instance.ok());
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  // ~2 s create + 15-25 s download of the 5.1 MB executable.
  EXPECT_GT(seconds, 17.0);
  EXPECT_LT(seconds, 28.0);
  // Second create on the same host reuses the downloaded executable.
  start = testbed_.simulation().Now();
  ASSERT_TRUE(CreateBlocking(testbed_.host(5)).ok());
  EXPECT_LT((testbed_.simulation().Now() - start).ToSeconds(), 2.6);
}

// The executable download to a host cut off from the class's home cannot
// land: every create waiting on it (two overlap here) fails with a typed
// error instead of never calling back, and no instance is left behind.
TEST_F(ClassObjectTest, CreateOnHostCutOffFromHomeFails) {
  testbed_.network().SetPartitioned(testbed_.host(0)->node(),
                                    testbed_.host(5)->node(), true);
  std::vector<std::optional<Result<ObjectId>>> out(2);
  for (auto& slot : out) {
    class_object_.CreateInstance(
        testbed_.host(5), 0,
        [&slot](Result<ObjectId> result) { slot.emplace(std::move(result)); });
  }
  testbed_.simulation().Run();
  for (const auto& slot : out) {
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(slot->status().code(), ErrorCode::kUnavailable)
        << slot->status().ToString();
  }
  EXPECT_EQ(class_object_.instance_count(), 0u);
}

// With the executable already on a host that is down, nothing can be
// spawned there: the create fails at once and leaves no instance behind.
TEST_F(ClassObjectTest, CreateOnDownHostFails) {
  ASSERT_TRUE(CreateBlocking(testbed_.host(5)).ok());
  testbed_.host(5)->SetUp(false);
  auto instance = CreateBlocking(testbed_.host(5));
  EXPECT_EQ(instance.status().code(), ErrorCode::kUnavailable)
      << instance.status();
  EXPECT_EQ(class_object_.instance_count(), 1u);
}

// A host that goes down while the instance's process spawns starts nothing:
// the create reports kUnavailable, once, and leaves no instance behind.
TEST_F(ClassObjectTest, CreateWhoseHostDiesMidSpawnFails) {
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1), [&] {
    testbed_.host(0)->SetUp(false);
  });
  int calls = 0;
  Status status;
  class_object_.CreateInstance(testbed_.host(0), 0,
                               [&](Result<ObjectId> result) {
                                 ++calls;
                                 status = result.status();
                               });
  testbed_.simulation().Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status;
  EXPECT_EQ(class_object_.instance_count(), 0u);
}

// Overlapping creates on one host share one executable download.
TEST_F(ClassObjectTest, OverlappingCreatesOnOneHostDownloadOnce) {
  const std::uint64_t before = testbed_.network().bytes_sent();
  std::vector<std::optional<Result<ObjectId>>> out(2);
  for (auto& slot : out) {
    class_object_.CreateInstance(
        testbed_.host(5), 0,
        [&slot](Result<ObjectId> result) { slot.emplace(std::move(result)); });
  }
  testbed_.simulation().RunWhile(
      [&] { return !out[0].has_value() || !out[1].has_value(); });
  ASSERT_TRUE(out[0]->ok()) << out[0]->status().ToString();
  ASSERT_TRUE(out[1]->ok()) << out[1]->status().ToString();
  EXPECT_NE(**out[0], **out[1]);
  EXPECT_EQ(testbed_.network().bytes_sent() - before, kTypicalExecutable);
}

TEST_F(ClassObjectTest, InstanceServesMethodCalls) {
  auto instance = CreateBlocking(testbed_.host(1));
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(*instance, "whoami");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "v1");
}

TEST_F(ClassObjectTest, UnknownMethodReturnsTypedError) {
  auto instance = CreateBlocking(testbed_.host(1));
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(*instance, "nosuch");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

TEST_F(ClassObjectTest, EvolveSwapsExecutableAndBehaviour) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/1 << 20);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(EvolveBlocking(*instance, v2_).ok());
  EXPECT_EQ(class_object_.InstanceExecutable(*instance).value_or(99), v2_);

  // A *fresh* client (empty cache) sees the new behaviour immediately.
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(*instance, "whoami");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "v2");
}

// The headline baseline number: monolithic evolution costs tens of seconds
// (capture + executable download + respawn + restore).
TEST_F(ClassObjectTest, MonolithicEvolutionCostsTensOfSeconds) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/1 << 20);
  ASSERT_TRUE(instance.ok());
  sim::SimTime start = testbed_.simulation().Now();
  ASSERT_TRUE(EvolveBlocking(*instance, v2_).ok());
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GT(seconds, 18.0) << "download dominates";
  EXPECT_LT(seconds, 35.0);
}

// And the client-visible cost on top: the old binding is stale, so the
// first post-evolution call from an old client pays the 25-35 s discovery.
TEST_F(ClassObjectTest, OldClientPaysStaleBindingAfterEvolution) {
  auto instance = CreateBlocking(testbed_.host(1));
  ASSERT_TRUE(instance.ok());
  auto client = testbed_.MakeClient(2);
  ASSERT_TRUE(client->InvokeBlocking(*instance, "whoami").ok());  // warm cache

  ASSERT_TRUE(EvolveBlocking(*instance, v2_).ok());

  sim::SimTime start = testbed_.simulation().Now();
  auto reply = client->InvokeBlocking(*instance, "whoami");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "v2");
  double seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GE(seconds, 25.0);
  EXPECT_LE(seconds, 35.0);
  EXPECT_EQ(client->rebinds(), 1u);
}

TEST_F(ClassObjectTest, MigrationMovesInstance) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/512 * 1024);
  ASSERT_TRUE(instance.ok());
  std::optional<Status> migrated;
  class_object_.MigrateInstance(*instance, testbed_.host(3),
                                [&](Status status) { migrated = status; });
  testbed_.simulation().RunWhile([&] { return !migrated.has_value(); });
  ASSERT_TRUE(migrated.has_value());
  ASSERT_TRUE(migrated->ok());
  EXPECT_EQ(class_object_.InstanceNode(*instance).value_or(0),
            testbed_.host(3)->node());
  auto client = testbed_.MakeClient(4);
  EXPECT_TRUE(client->InvokeBlocking(*instance, "whoami").ok());
}

// A migration whose state cannot reach the destination fails with a typed
// error, and the instance comes back up at its source (same executable,
// captured state) instead of staying deactivated.
TEST_F(ClassObjectTest, FailedMigrationReactivatesAtSource) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/512 * 1024);
  ASSERT_TRUE(instance.ok());
  testbed_.network().SetPartitioned(testbed_.host(1)->node(),
                                    testbed_.host(3)->node(), true);
  std::optional<Status> migrated;
  class_object_.MigrateInstance(*instance, testbed_.host(3),
                                [&](Status status) { migrated = status; });
  testbed_.simulation().RunWhile([&] { return !migrated.has_value(); });
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(migrated->code(), ErrorCode::kUnavailable) << *migrated;
  EXPECT_EQ(class_object_.InstanceNode(*instance).value_or(0),
            testbed_.host(1)->node());
  auto client = testbed_.MakeClient(4);
  auto reply = client->InvokeBlocking(*instance, "whoami");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->ToString(), "v1");
}

// The same for an evolution whose executable download fails: the instance
// is reactivated on its own host with its old executable.
TEST_F(ClassObjectTest, FailedEvolutionDownloadReactivatesOldExecutable) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/1 << 20);
  ASSERT_TRUE(instance.ok());
  testbed_.network().SetPartitioned(testbed_.host(0)->node(),
                                    testbed_.host(1)->node(), true);
  Status evolved = EvolveBlocking(*instance, v2_);
  EXPECT_EQ(evolved.code(), ErrorCode::kUnavailable) << evolved;
  EXPECT_EQ(class_object_.InstanceExecutable(*instance).value_or(99), v1_);
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(*instance, "whoami");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->ToString(), "v1");
}

// When the instance's own host goes down during the executable download,
// nothing can be reactivated there: the evolution still reports kUnavailable
// and the instance stays deactivated.
TEST_F(ClassObjectTest, EvolutionWhoseHostDiesMidDownloadFails) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/1 << 20);
  ASSERT_TRUE(instance.ok());
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(5), [&] {
    testbed_.host(1)->SetUp(false);
  });
  Status evolved = EvolveBlocking(*instance, v2_);
  EXPECT_EQ(evolved.code(), ErrorCode::kUnavailable) << evolved;
  EXPECT_TRUE(class_object_.HasInstance(*instance));
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
}

// The same for a migration whose source goes down during the state
// transfer: no reactivation at the source, and `done` still runs.
TEST_F(ClassObjectTest, MigrationWhoseSourceDiesMidTransferFails) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/512 * 1024);
  ASSERT_TRUE(instance.ok());
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(1), [&] {
    testbed_.host(1)->SetUp(false);
  });
  std::optional<Status> migrated;
  class_object_.MigrateInstance(*instance, testbed_.host(3),
                                [&](Status status) { migrated = status; });
  testbed_.simulation().Run();
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(migrated->code(), ErrorCode::kUnavailable) << *migrated;
  EXPECT_TRUE(class_object_.HasInstance(*instance));
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
}

// A destroy during an evolution's executable download wins: the evolution
// reports kNotFound and nothing brings the instance back or binds it.
TEST_F(ClassObjectTest, DestroyDuringEvolutionStaysDestroyed) {
  auto instance = CreateBlocking(testbed_.host(1), /*state=*/1 << 20);
  ASSERT_TRUE(instance.ok());
  testbed_.simulation().Schedule(sim::SimDuration::Seconds(5), [&] {
    EXPECT_TRUE(class_object_.DestroyInstance(*instance).ok());
  });
  Status evolved = EvolveBlocking(*instance, v2_);
  EXPECT_EQ(evolved.code(), ErrorCode::kNotFound) << evolved;
  EXPECT_FALSE(class_object_.HasInstance(*instance));
  EXPECT_EQ(class_object_.instance_count(), 0u);
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
}

// Destroying the class object ends its operations kNotFound, once: 1 s
// into a create on a remote host the 5.1 MB executable still downloads;
// 1 s into one on its home host the process still spawns.
TEST_F(ClassObjectTest, DestroyDuringCreateDownloadEndsNotFound) {
  ClassObject& doomed = MakeDoomed();
  ExpectDestroyEndsNotFound(1.0, [&](ClassObject::DoneCallback done) {
    doomed.CreateInstance(testbed_.host(5), 0, [done](Result<ObjectId> r) {
      done(r.status());
    });
  });
}

TEST_F(ClassObjectTest, DestroyDuringCreateSpawnEndsNotFound) {
  ClassObject& doomed = MakeDoomed();
  ExpectDestroyEndsNotFound(1.0, [&](ClassObject::DoneCallback done) {
    doomed.CreateInstance(testbed_.host(0), 0, [done](Result<ObjectId> r) {
      done(r.status());
    });
  });
}

// 1 s into a migration, 512 KB of captured state is still on the wire.
TEST_F(ClassObjectTest, DestroyDuringMigrationTransferEndsNotFound) {
  ClassObject& doomed = MakeDoomed();
  std::optional<Result<ObjectId>> created;
  doomed.CreateInstance(testbed_.host(1), /*state=*/512 * 1024,
                        [&](Result<ObjectId> r) { created.emplace(r); });
  testbed_.simulation().RunWhile([&] { return !created.has_value(); });
  ASSERT_TRUE(created->ok()) << created->status();
  ExpectDestroyEndsNotFound(1.0, [&](ClassObject::DoneCallback done) {
    doomed.MigrateInstance(**created, testbed_.host(3), std::move(done));
  });
}

TEST_F(ClassObjectTest, DestroyInstanceUnbinds) {
  auto instance = CreateBlocking(testbed_.host(1));
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(class_object_.DestroyInstance(*instance).ok());
  EXPECT_FALSE(class_object_.HasInstance(*instance));
  EXPECT_FALSE(testbed_.agent().Bound(*instance));
  EXPECT_EQ(class_object_.DestroyInstance(*instance).code(),
            ErrorCode::kNotFound);
}

TEST_F(ClassObjectTest, SetCurrentExecutableValidatesIndex) {
  EXPECT_TRUE(class_object_.SetCurrentExecutable(v2_).ok());
  EXPECT_EQ(class_object_.current_executable().name, "server-v2");
  EXPECT_EQ(class_object_.SetCurrentExecutable(99).code(),
            ErrorCode::kOutOfRange);
}

TEST_F(ClassObjectTest, EvolveUnknownInstanceFails) {
  EXPECT_EQ([&] {
    std::optional<Status> out;
    class_object_.EvolveInstance(ObjectId::Next(domains::kInstance), v2_,
                                 [&](Status status) { out = status; });
    testbed_.simulation().Run();
    return out.value_or(InternalError("no callback"));
  }().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace dcdo
