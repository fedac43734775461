// Full remote-configuration round: a client evolves a DCDO purely through
// its exported configuration interface — the paper's point that "an object's
// external interface is the mechanism that is used to evolve its
// implementation".
#include <gtest/gtest.h>

#include "common/serialize.h"
#include "component/ico.h"
#include "core/dcdo.h"
#include "core/proxy.h"
#include "dfm/descriptor_wire.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

ByteBuffer WireFunctionComponent(const std::string& function,
                                 const ObjectId& component) {
  Writer writer;
  writer.WriteString(function);
  writer.WriteObjectId(component);
  return std::move(writer).Take();
}

ByteBuffer WireDependency(const Dependency& dep) {
  Writer writer;
  WriteDependency(writer, dep);
  return std::move(writer).Take();
}

class RemoteConfigTest : public ::testing::Test {
 protected:
  RemoteConfigTest() {
    comp_a_ = testing::MakeEchoComponent(testbed_.registry(), "libA",
                                         {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(testbed_.registry(), "libB", {"f"});
    ico_a_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_a_);
    ico_b_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_b_);
    icos_.Register(ico_a_.get());
    icos_.Register(ico_b_.get());
    object_ = std::make_unique<Dcdo>("svc", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
    client_ = testbed_.MakeClient(4);
  }

  Result<ByteBuffer> Config(const std::string& method, ByteBuffer args) {
    return client_->InvokeBlocking(object_->id(), method, std::move(args));
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  std::unique_ptr<ImplementationComponentObject> ico_a_;
  std::unique_ptr<ImplementationComponentObject> ico_b_;
  std::unique_ptr<Dcdo> object_;
  std::unique_ptr<rpc::RpcClient> client_;
};

// The whole lifecycle driven remotely: incorporate both components, enable,
// call, add a dependency, mark mandatory, switch implementations.
TEST_F(RemoteConfigTest, FullEvolutionViaExportedInterface) {
  Writer inc_a;
  inc_a.WriteObjectId(comp_a_.id);
  ASSERT_TRUE(Config("dcdo.incorporateComponent",
                     std::move(inc_a).Take()).ok());
  Writer inc_b;
  inc_b.WriteObjectId(comp_b_.id);
  ASSERT_TRUE(Config("dcdo.incorporateComponent",
                     std::move(inc_b).Take()).ok());

  ASSERT_TRUE(Config("dcdo.enableFunction",
                     WireFunctionComponent("g", comp_a_.id)).ok());
  ASSERT_TRUE(Config("dcdo.enableFunction",
                     WireFunctionComponent("f", comp_a_.id)).ok());

  auto reply = client_->InvokeBlocking(object_->id(), "f",
                                       ByteBuffer::FromString("x"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "libA.f:x");

  // Add a Type D dependency remotely; now disabling g is refused remotely.
  ASSERT_TRUE(Config("dcdo.addDependency",
                     WireDependency(Dependency::TypeD("f", "g"))).ok());
  auto refused = Config("dcdo.disableFunction",
                        WireFunctionComponent("g", comp_a_.id));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kDependencyViolation);

  // Remove it again, and the disable goes through.
  ASSERT_TRUE(Config("dcdo.removeDependency",
                     WireDependency(Dependency::TypeD("f", "g"))).ok());
  ASSERT_TRUE(Config("dcdo.disableFunction",
                     WireFunctionComponent("g", comp_a_.id)).ok());

  // Mark f mandatory remotely; a remote disable is refused with the typed
  // error; a remote switch still works.
  Writer mandatory;
  mandatory.WriteString("f");
  ASSERT_TRUE(Config("dcdo.markMandatory", std::move(mandatory).Take()).ok());
  auto mviolation = Config("dcdo.disableFunction",
                           WireFunctionComponent("f", comp_a_.id));
  EXPECT_EQ(mviolation.status().code(), ErrorCode::kMandatoryViolation);
  ASSERT_TRUE(Config("dcdo.switchImplementation",
                     WireFunctionComponent("f", comp_b_.id)).ok());
  reply = client_->InvokeBlocking(object_->id(), "f",
                                  ByteBuffer::FromString("y"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), "libB.f:y");

  // And the annotated interface reflects the mark for any proxy client.
  DcdoProxy proxy(client_.get(), object_->id());
  ASSERT_TRUE(proxy.RefreshInterface().ok());
  EXPECT_TRUE(proxy.IsAssured("f"));
}

TEST_F(RemoteConfigTest, MarkPermanentRemotely) {
  Writer inc_a;
  inc_a.WriteObjectId(comp_a_.id);
  ASSERT_TRUE(Config("dcdo.incorporateComponent",
                     std::move(inc_a).Take()).ok());
  ASSERT_TRUE(Config("dcdo.markPermanent",
                     WireFunctionComponent("f", comp_a_.id)).ok());
  // Permanent implies enabled.
  EXPECT_NE(object_->mapper().state().EnabledImpl("f"), nullptr);
  auto refused = Config("dcdo.disableFunction",
                        WireFunctionComponent("f", comp_a_.id));
  EXPECT_EQ(refused.status().code(), ErrorCode::kPermanentViolation);
}

// Evolution by shipping a whole serialized descriptor: the manager-less
// remote path.
TEST_F(RemoteConfigTest, EvolveToSerializedDescriptorOverRpc) {
  // Build the target configuration locally and freeze it.
  DfmDescriptor target(VersionId{1, 1});
  ASSERT_TRUE(target.IncorporateComponent(comp_a_, false).ok());
  ASSERT_TRUE(target.IncorporateComponent(comp_b_, false).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_b_.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());

  Writer writer;
  writer.WriteBytes(SerializeDescriptor(target));
  writer.WriteBool(true);  // enforce marks
  auto reply = Config("dcdo.evolveTo", std::move(writer).Take());
  ASSERT_TRUE(reply.ok()) << reply.status();

  EXPECT_EQ(object_->version(), (VersionId{1, 1}));
  auto call = client_->InvokeBlocking(object_->id(), "f",
                                      ByteBuffer::FromString("z"));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->ToString(), "libB.f:z");
}

TEST_F(RemoteConfigTest, EvolveToGarbageDescriptorRejected) {
  Writer writer;
  writer.WriteBytes(ByteBuffer::FromString("not a descriptor"));
  writer.WriteBool(true);
  auto reply = Config("dcdo.evolveTo", std::move(writer).Take());
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(object_->GetComponents().empty()) << "nothing was applied";
}

TEST_F(RemoteConfigTest, EvolveToConfigurableDescriptorRejected) {
  DfmDescriptor target(VersionId{1, 1});
  ASSERT_TRUE(target.IncorporateComponent(comp_a_, false).ok());
  // Never marked instantiable.
  Writer writer;
  writer.WriteBytes(SerializeDescriptor(target));
  writer.WriteBool(true);
  auto reply = Config("dcdo.evolveTo", std::move(writer).Take());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kVersionNotInstantiable);
}

TEST_F(RemoteConfigTest, MalformedConfigArgsRejected) {
  auto r1 = Config("dcdo.enableFunction", ByteBuffer::FromString("junk"));
  EXPECT_FALSE(r1.ok());
  auto r2 = Config("dcdo.addDependency", ByteBuffer{});
  EXPECT_FALSE(r2.ok());
  Writer bad_kind;
  bad_kind.WriteU32(99);
  auto r3 = Config("dcdo.addDependency", std::move(bad_kind).Take());
  EXPECT_FALSE(r3.ok());
  // A Type B dependency names both components; one with neither is
  // malformed, not merely absent from the set.
  Dependency no_components;
  no_components.kind = DependencyKind::kTypeB;
  no_components.dependent = "f";
  no_components.target = "g";
  auto r4 = Config("dcdo.removeDependency", WireDependency(no_components));
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace dcdo
