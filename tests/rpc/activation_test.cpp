// One activation per object: every owner of a process, an endpoint and a
// binding (a Dcdo, its DcdoManager, an ICO, a ClassObject's instance) opens
// and closes the three as one rpc::Activation. One table: the owners, each
// crossed with the ways its activation ends, run checked and traced.
#include "rpc/activation.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/manager.h"
#include "runtime/class_object.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

enum class Owner { kDcdo, kManager, kIco, kClassInstance };

// What happens to the activation before its owner is destroyed.
enum class Ending {
  kDestroy,     // nothing: destroyed while open
  kDeactivate,  // a DCDO deactivates
  kReactivate,  // a DCDO deactivates, then reactivates on its host
  kMigrate,     // a DCDO or a class-object instance moves to another host
  kEvolve,      // a class-object instance moves to a new executable
};

struct ActivationRow {
  const char* name;
  Owner owner;
  Ending ending;
};

constexpr ActivationRow kActivationRows[] = {
    {"DCDO destroyed", Owner::kDcdo, Ending::kDestroy},
    {"DCDO deactivated, then destroyed", Owner::kDcdo, Ending::kDeactivate},
    {"DCDO reactivated, then destroyed", Owner::kDcdo, Ending::kReactivate},
    {"DCDO migrated, then destroyed", Owner::kDcdo, Ending::kMigrate},
    {"manager destroyed", Owner::kManager, Ending::kDestroy},
    {"ICO destroyed", Owner::kIco, Ending::kDestroy},
    {"class-object instance destroyed", Owner::kClassInstance,
     Ending::kDestroy},
    {"class-object instance evolved, then destroyed", Owner::kClassInstance,
     Ending::kEvolve},
    {"class-object instance migrated, then destroyed", Owner::kClassInstance,
     Ending::kMigrate},
};

Executable MakeExecutable(const std::string& name) {
  Executable executable;
  executable.name = name;
  executable.bytes = 64 * 1024;
  executable.methods.Add("whoami", [name](InstanceState&, const ByteBuffer&) {
    return Result<ByteBuffer>(ByteBuffer::FromString(name));
  });
  return executable;
}

class ActivationScenario {
 public:
  ActivationScenario() : testbed_(Options()) {}

  static Testbed::Options Options() {
    Testbed::Options options;
    options.tracing = true;  // checking is on by default
    return options;
  }

  Testbed& testbed() { return testbed_; }

  // The address the agent returns for `id` (invalid when unbound).
  ObjectAddress Bound(const ObjectId& id) {
    return testbed_.agent().Lookup(id).value_or(ObjectAddress());
  }

  // `id` is present at `address`: its process runs there, its endpoint
  // answers at the address's epoch and the agent returns the address.
  void ExpectOpen(const ObjectId& id, const ObjectAddress& address) {
    ASSERT_TRUE(address.valid());
    EXPECT_EQ(HostOf(address).ProcessOwner(address.pid),
              std::optional<ObjectId>(id));
    EXPECT_EQ(testbed_.transport().EndpointEpoch(address.node, address.pid),
              address.epoch);
    EXPECT_EQ(Bound(id), address);
  }

  // Nothing of `id` is left at `address`.
  void ExpectClosed(const ObjectId& id, const ObjectAddress& address) {
    ASSERT_TRUE(address.valid());
    EXPECT_FALSE(HostOf(address).ProcessAlive(address.pid));
    EXPECT_FALSE(testbed_.transport().EndpointAlive(address.node, address.pid));
    EXPECT_NE(Bound(id), address);
  }

  // Runs the simulation until `start` reports, and returns its status.
  template <typename Start>
  Status Await(Start start) {
    std::optional<Status> out;
    start([&](Status status) { out = status; });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("operation never completed"));
  }

  // Every endpoint the run opened was closed exactly once, and the checker
  // reports nothing. Call once every owner is destroyed.
  void ExpectEveryOpenClosedOnce() {
    std::map<std::pair<std::uint32_t, std::string>, int> opens;
    std::map<std::pair<std::uint32_t, std::string>, int> closes;
    for (const trace::Span& span : testbed_.tracer()->SnapshotSpans()) {
      std::string pid;
      for (const auto& [key, value] : span.notes) {
        if (key == "pid") pid = value;
      }
      if (span.name == "rpc.endpoint_open") ++opens[{span.node, pid}];
      if (span.name == "rpc.endpoint_close") ++closes[{span.node, pid}];
    }
    EXPECT_FALSE(opens.empty());
    EXPECT_EQ(opens, closes);
    for (const auto& [endpoint, count] : closes) {
      EXPECT_EQ(count, 1) << "node " << endpoint.first << " pid "
                          << endpoint.second << " closed " << count
                          << " times";
    }
    check::Checker& checker = *testbed_.checker();
    checker.EvaluateAtEnd();
    EXPECT_EQ(checker.diagnostics().count(), 0u)
        << checker.diagnostics().DumpText();
  }

 private:
  sim::SimHost& HostOf(const ObjectAddress& address) {
    return *testbed_.host(address.node - 1);  // hosts are nodes 1..N
  }

  Testbed testbed_;
};

// A manager with one published component and an instantiable version.
std::unique_ptr<DcdoManager> MakeManager(Testbed& testbed, ObjectId* ico) {
  auto manager = std::make_unique<DcdoManager>(
      "activated", testbed.host(0), &testbed.transport(), &testbed.agent(),
      &testbed.registry(), MakeSingleVersionExplicit());
  auto comp =
      testing::MakeEchoComponent(testbed.registry(), "served", {"serve"});
  *ico = *manager->PublishComponent(comp);
  VersionId v1 = *manager->CreateRootVersion();
  DfmDescriptor* d1 = *manager->MutableDescriptor(v1);
  EXPECT_TRUE(d1->IncorporateComponent(comp).ok());
  EXPECT_TRUE(d1->EnableFunction("serve", comp.id).ok());
  EXPECT_TRUE(manager->MarkInstantiable(v1).ok());
  EXPECT_TRUE(manager->SetCurrentVersion(v1).ok());
  return manager;
}

void RunDcdoRow(ActivationScenario& scenario, Ending ending) {
  Testbed& testbed = scenario.testbed();
  ObjectId ico;
  std::unique_ptr<DcdoManager> manager = MakeManager(testbed, &ico);
  ObjectId id;
  ASSERT_TRUE(scenario
                  .Await([&](auto done) {
                    manager->CreateInstance(
                        testbed.host(1), [&, done](Result<ObjectId> created) {
                          if (created.ok()) id = *created;
                          done(created.status());
                        });
                  })
                  .ok());
  Dcdo& object = *manager->FindInstance(id);
  ObjectAddress address = object.address();
  scenario.ExpectOpen(id, address);
  auto deactivate = [&] {
    ASSERT_TRUE(scenario
                    .Await([&](auto done) {
                      manager->DeactivateInstance(id, done);
                    })
                    .ok());
    scenario.ExpectClosed(id, address);
    EXPECT_FALSE(object.active());
    EXPECT_EQ(object.address(), address) << "the last address stays";
  };
  switch (ending) {
    case Ending::kDeactivate:
      deactivate();
      break;
    case Ending::kReactivate:
      deactivate();
      ASSERT_TRUE(scenario
                      .Await([&](auto done) {
                        manager->ReactivateInstance(id, done);
                      })
                      .ok());
      EXPECT_EQ(object.address().epoch, address.epoch + 1);
      address = object.address();
      scenario.ExpectOpen(id, address);
      break;
    case Ending::kMigrate:
      ASSERT_TRUE(scenario
                      .Await([&](auto done) {
                        manager->MigrateInstance(id, testbed.host(2), done);
                      })
                      .ok());
      scenario.ExpectClosed(id, address);
      EXPECT_EQ(object.address().node, testbed.host(2)->node());
      EXPECT_EQ(object.address().epoch, address.epoch + 1);
      address = object.address();
      scenario.ExpectOpen(id, address);
      break;
    default:
      break;
  }
  ASSERT_TRUE(manager->DestroyInstance(id).ok());
  scenario.ExpectClosed(id, address);
}

void RunManagerOrIcoRow(ActivationScenario& scenario, Owner owner) {
  ObjectId ico;
  std::unique_ptr<DcdoManager> manager =
      MakeManager(scenario.testbed(), &ico);
  const ObjectId id = owner == Owner::kManager ? manager->id() : ico;
  const ObjectAddress address = scenario.Bound(id);
  scenario.ExpectOpen(id, address);
  manager.reset();
  scenario.ExpectClosed(id, address);
}

void RunClassInstanceRow(ActivationScenario& scenario, Ending ending) {
  Testbed& testbed = scenario.testbed();
  ClassObject class_object("server", testbed.host(0), &testbed.transport(),
                           &testbed.agent());
  class_object.AddExecutable(MakeExecutable("server-v1"));
  const std::size_t v2 = class_object.AddExecutable(MakeExecutable("server-v2"));
  ObjectId id;
  ASSERT_TRUE(scenario
                  .Await([&](auto done) {
                    class_object.CreateInstance(
                        testbed.host(1), 4096,
                        [&, done](Result<ObjectId> created) {
                          if (created.ok()) id = *created;
                          done(created.status());
                        });
                  })
                  .ok());
  ObjectAddress address = scenario.Bound(id);
  scenario.ExpectOpen(id, address);
  if (ending != Ending::kDestroy) {
    ASSERT_TRUE(scenario
                    .Await([&](auto done) {
                      if (ending == Ending::kEvolve) {
                        class_object.EvolveInstance(id, v2, done);
                      } else {
                        class_object.MigrateInstance(id, testbed.host(2),
                                                     done);
                      }
                    })
                    .ok());
    scenario.ExpectClosed(id, address);
    address = scenario.Bound(id);
    scenario.ExpectOpen(id, address);
    EXPECT_EQ(class_object.InstanceNode(id).value_or(0), address.node);
  }
  ASSERT_TRUE(class_object.DestroyInstance(id).ok());
  scenario.ExpectClosed(id, address);
}

// Each owner, under each way its activation ends: while open, the process
// runs, the endpoint answers at its epoch and the agent returns the
// address; after every close nothing is left at the old address; and over
// the run every rpc.endpoint_open has exactly one rpc.endpoint_close.
TEST(ActivationTest, EveryOwnerClosesWhatItOpensExactlyOnce) {
  for (const ActivationRow& row : kActivationRows) {
    SCOPED_TRACE(row.name);
    ActivationScenario scenario;
    switch (row.owner) {
      case Owner::kDcdo:
        RunDcdoRow(scenario, row.ending);
        break;
      case Owner::kManager:
      case Owner::kIco:
        RunManagerOrIcoRow(scenario, row.owner);
        break;
      case Owner::kClassInstance:
        RunClassInstanceRow(scenario, row.ending);
        break;
    }
    scenario.ExpectEveryOpenClosedOnce();
  }
}

}  // namespace
}  // namespace dcdo
