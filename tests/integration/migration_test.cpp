// Migration across a heterogeneous testbed: implementation types decide
// which components can map where, and lazy-on-migrate policies piggyback
// updates on the move (paper Sections 2.1 and 3.4).
#include <gtest/gtest.h>

#include "core/manager.h"
#include "rpc/client.h"
#include "runtime/fom.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : testbed_(MakeOptions()) {}

  static Testbed::Options MakeOptions() {
    Testbed::Options options;
    options.heterogeneous = true;  // hosts rotate x86/sparc/alpha/nt
    return options;
  }

  void InitManager(std::unique_ptr<EvolutionPolicy> policy) {
    manager_ = std::make_unique<DcdoManager>(
        "het", testbed_.host(0), &testbed_.transport(), &testbed_.agent(),
        &testbed_.registry(), std::move(policy));
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

  Status MigrateBlocking(const ObjectId& instance, std::size_t host_index) {
    std::optional<Status> out;
    manager_->MigrateInstance(instance, testbed_.host(host_index),
                              [&](Status status) { out = status; });
    testbed_.simulation().RunWhile([&] { return !out.has_value(); });
    return out.value_or(InternalError("migrate never completed"));
  }

  Testbed testbed_;
  std::unique_ptr<DcdoManager> manager_;
};

TEST_F(MigrationTest, TestbedRotatesArchitectures) {
  EXPECT_EQ(testbed_.host(0)->architecture(), sim::Architecture::kX86Linux);
  EXPECT_EQ(testbed_.host(1)->architecture(),
            sim::Architecture::kSparcSolaris);
  EXPECT_EQ(testbed_.host(2)->architecture(), sim::Architecture::kAlphaOsf);
  EXPECT_EQ(testbed_.host(3)->architecture(), sim::Architecture::kX86Nt);
  EXPECT_EQ(testbed_.host(4)->architecture(), sim::Architecture::kX86Linux);
}

TEST_F(MigrationTest, PortableComponentMigratesAcrossArchitectures) {
  InitManager(MakeSingleVersionExplicit());
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "portable",
                                         {"serve"});
  ASSERT_TRUE(manager_->PublishComponent(comp).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(comp).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", comp.id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);  // x86-linux
  ASSERT_TRUE(instance.ok());
  // x86 -> sparc -> alpha, serving at each stop.
  for (std::size_t dest : {1u, 2u}) {
    ASSERT_TRUE(MigrateBlocking(*instance, dest).ok());
    Dcdo* object = manager_->FindInstance(*instance);
    EXPECT_EQ(object->address().node, testbed_.host(dest)->node());
    auto result = object->Call("serve", ByteBuffer::FromString("hi"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->ToString(), "portable.serve:hi");
  }
}

TEST_F(MigrationTest, NativeOnlyComponentRefusesIncompatibleDestination) {
  InitManager(MakeSingleVersionExplicit());
  // A component whose only build is x86-linux native.
  auto native = ComponentBuilder("native")
                    .SetType(ImplementationType::Native(
                        sim::Architecture::kX86Linux))
                    .AddFunction("serve", "b(b)", "native/serve")
                    .Build();
  ASSERT_TRUE(native.ok());
  testbed_.registry().Register(
      "native/serve", ImplementationType::Native(sim::Architecture::kX86Linux),
      [](CallContext&, const ByteBuffer&) {
        return Result<ByteBuffer>(ByteBuffer::FromString("native"));
      });
  ASSERT_TRUE(manager_->PublishComponent(*native).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(*native).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", native->id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);  // x86-linux host
  ASSERT_TRUE(instance.ok());
  // Host 1 is sparc-solaris: the migration must be refused up front.
  Status status = MigrateBlocking(*instance, 1);
  EXPECT_EQ(status.code(), ErrorCode::kArchMismatch);
  // The instance is untouched and still serving on its original host.
  Dcdo* object = manager_->FindInstance(*instance);
  EXPECT_EQ(object->address().node, testbed_.host(4)->node());
  EXPECT_TRUE(object->Call("serve", ByteBuffer{}).ok());
}

TEST_F(MigrationTest, PerArchitectureBuildsSwapOnMigration) {
  InitManager(MakeSingleVersionExplicit());
  // One component, portable *type*, but with per-arch native bodies in the
  // registry: the DCDO keeps the same version yet runs a different build
  // after the move — "functionally equivalent implementations".
  auto comp = ComponentBuilder("multi")
                  .SetType(ImplementationType::Portable())
                  .AddFunction("which", "s()", "multi/which")
                  .Build();
  ASSERT_TRUE(comp.ok());
  for (auto arch : {sim::Architecture::kX86Linux,
                    sim::Architecture::kSparcSolaris,
                    sim::Architecture::kAlphaOsf, sim::Architecture::kX86Nt}) {
    testbed_.registry().Register(
        "multi/which", ImplementationType::Native(arch),
        [arch](CallContext&, const ByteBuffer&) {
          return Result<ByteBuffer>(ByteBuffer::FromString(
              std::string(sim::ArchitectureName(arch))));
        });
  }
  ASSERT_TRUE(manager_->PublishComponent(*comp).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(*comp).ok());
  ASSERT_TRUE(d1->EnableFunction("which", comp->id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);  // x86-linux
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  EXPECT_EQ(object->Call("which", ByteBuffer{})->ToString(), "x86-linux");

  ASSERT_TRUE(MigrateBlocking(*instance, 1).ok());  // sparc
  EXPECT_EQ(object->Call("which", ByteBuffer{})->ToString(),
            "sparc-solaris");
  EXPECT_EQ(manager_->InstanceVersion(*instance).value_or(VersionId()), v1)
      << "same version, different build";
}

TEST_F(MigrationTest, MigrationFetchesComponentsAtDestination) {
  InitManager(MakeSingleVersionExplicit());
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "heavy",
                                         {"serve"}, /*code_bytes=*/5'100'000);
  ASSERT_TRUE(manager_->PublishComponent(comp).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(comp).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", comp.id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);
  ASSERT_TRUE(instance.ok());
  ASSERT_FALSE(testbed_.host(8)->ComponentCached(comp.id));

  sim::SimTime start = testbed_.simulation().Now();
  ASSERT_TRUE(MigrateBlocking(*instance, 8).ok());
  EXPECT_TRUE(testbed_.host(8)->ComponentCached(comp.id));
  double cold_seconds = (testbed_.simulation().Now() - start).ToSeconds();

  // A second migration to the same host skips the component download; only
  // the state-transfer session remains, so it is measurably cheaper.
  ASSERT_TRUE(MigrateBlocking(*instance, 4).ok());
  start = testbed_.simulation().Now();
  ASSERT_TRUE(MigrateBlocking(*instance, 8).ok());
  double warm_seconds = (testbed_.simulation().Now() - start).ToSeconds();
  EXPECT_GT(cold_seconds, warm_seconds + 0.5)
      << "cold migration pays the 5.1 MB component stream";
  EXPECT_LT(cold_seconds, 10.0);
}

// A portable component whose one body is built only for x86: the type check
// before the move passes, but its body cannot be resolved on sparc. The
// move fails before anything moves: the instance keeps its address, its
// binding and its x86 body, and nothing is left in flight.
TEST_F(MigrationTest, UnmappableBodyLeavesInstanceWhereItWas) {
  InitManager(MakeSingleVersionExplicit());
  auto comp = ComponentBuilder("x86only")
                  .AddFunction("serve", "b(b)", "x86only/serve")
                  .Build();
  ASSERT_TRUE(comp.ok());
  testbed_.registry().Register(
      "x86only/serve", ImplementationType::Native(sim::Architecture::kX86Linux),
      [](CallContext&, const ByteBuffer&) {
        return Result<ByteBuffer>(ByteBuffer::FromString("x86"));
      });
  ASSERT_TRUE(manager_->PublishComponent(*comp).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(*comp).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", comp->id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);  // x86-linux
  ASSERT_TRUE(instance.ok());
  Dcdo* object = manager_->FindInstance(*instance);
  const ObjectAddress before = object->address();

  Status status = MigrateBlocking(*instance, 1);  // sparc-solaris
  EXPECT_EQ(status.code(), ErrorCode::kArchMismatch) << status.ToString();
  EXPECT_EQ(&object->host(), testbed_.host(4));
  EXPECT_EQ(object->address(), before);
  EXPECT_TRUE(object->active());
  EXPECT_TRUE(testbed_.host(4)->ProcessAlive(before.pid));
  EXPECT_EQ(testbed_.transport().EndpointEpoch(before.node, before.pid),
            before.epoch);
  EXPECT_EQ(testbed_.agent().Lookup(*instance).value_or(ObjectAddress()),
            before);
  auto result = object->Call("serve", ByteBuffer{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToString(), "x86");
  EXPECT_EQ(runtime::FomScheduler::For(testbed_.simulation()).live_count(),
            0u);
}

// A state transfer that cannot land fails the migration with a typed error
// instead of leaving it pending. The instance is rebound only once its
// state lands, so it keeps serving at its source.
TEST_F(MigrationTest, MigrationAcrossPartitionFailsAndKeepsServingAtSource) {
  InitManager(MakeSingleVersionExplicit());
  auto comp = testing::MakeEchoComponent(testbed_.registry(), "portable",
                                         {"serve"});
  ASSERT_TRUE(manager_->PublishComponent(comp).ok());
  VersionId v1 = *manager_->CreateRootVersion();
  auto d1 = *manager_->MutableDescriptor(v1);
  ASSERT_TRUE(d1->IncorporateComponent(comp).ok());
  ASSERT_TRUE(d1->EnableFunction("serve", comp.id).ok());
  ASSERT_TRUE(manager_->MarkInstantiable(v1).ok());
  ASSERT_TRUE(manager_->SetCurrentVersion(v1).ok());

  auto instance = CreateBlocking(4);
  ASSERT_TRUE(instance.ok());
  testbed_.network().SetPartitioned(testbed_.host(4)->node(),
                                    testbed_.host(1)->node(), true);
  Status status = MigrateBlocking(*instance, 1);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.ToString();

  Dcdo* object = manager_->FindInstance(*instance);
  EXPECT_EQ(object->address().node, testbed_.host(4)->node());
  auto client = testbed_.MakeClient(2);
  auto reply = client->InvokeBlocking(*instance, "serve",
                                      ByteBuffer::FromString("hi"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->ToString(), "portable.serve:hi");
}

}  // namespace
}  // namespace dcdo
