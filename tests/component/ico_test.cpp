#include "component/ico.h"

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "rpc/client.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class IcoTest : public ::testing::Test {
 protected:
  IcoTest()
      : network_(&simulation_, sim::CostModel{}),
        transport_(&network_),
        home_(&simulation_, &network_, 1, sim::Architecture::kX86Linux),
        remote_(&simulation_, &network_, 2, sim::Architecture::kX86Linux) {}

  ImplementationComponent MakeComponent(std::size_t bytes = 550'000) {
    auto component = ComponentBuilder("libdemo")
                         .SetCodeBytes(bytes)
                         .AddFunction("hello", "s()", "libdemo/hello")
                         .Build();
    EXPECT_TRUE(component.ok());
    return *component;
  }

  sim::Simulation simulation_;
  sim::SimNetwork network_;
  rpc::RpcTransport transport_;
  sim::SimHost home_;
  sim::SimHost remote_;
  BindingAgent agent_;
};

TEST_F(IcoTest, ActivationBindsComponentId) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent());
  EXPECT_TRUE(agent_.Bound(ico.id()));
  EXPECT_TRUE(home_.ComponentCached(ico.id()));
  EXPECT_EQ(ico.node(), home_.node());
}

TEST_F(IcoTest, DestructionUnbinds) {
  ObjectId id;
  {
    ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                      MakeComponent());
    id = ico.id();
  }
  EXPECT_FALSE(agent_.Bound(id));
}

TEST_F(IcoTest, GetDescriptorOverRpc) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent());
  rpc::RpcClient client(&transport_, &agent_, remote_.node());
  auto reply = client.InvokeBlocking(
      ico.id(), ImplementationComponentObject::kGetDescriptor);
  ASSERT_TRUE(reply.ok());
  auto meta = ParseComponentMeta(*reply);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->name, "libdemo");
  EXPECT_EQ(meta->id, ico.id());
}

TEST_F(IcoTest, GetSizeOverRpc) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent(123'456));
  rpc::RpcClient client(&transport_, &agent_, remote_.node());
  auto reply =
      client.InvokeBlocking(ico.id(), ImplementationComponentObject::kGetSize);
  ASSERT_TRUE(reply.ok());
  Reader reader(*reply);
  EXPECT_EQ(reader.ReadU64().value_or(0), 123'456u);
}

TEST_F(IcoTest, UnknownMethodRejected) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent());
  rpc::RpcClient client(&transport_, &agent_, remote_.node());
  auto reply = client.InvokeBlocking(ico.id(), "selfDestruct");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNotFound);
}

TEST_F(IcoTest, StreamToCachesAtDestinationWithDownloadCost) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent(550'000));
  ASSERT_FALSE(remote_.ComponentCached(ico.id()));
  bool done = false;
  ico.StreamTo(&remote_, [&](Status status) {
    EXPECT_TRUE(status.ok());
    done = true;
  });
  simulation_.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(remote_.ComponentCached(ico.id()));
  EXPECT_EQ(remote_.CachedComponentSize(ico.id()), 550'000u);
  // Component fetches use the fast object-to-object path: session overhead
  // (~160 ms) + streaming — a couple hundred ms for 550 KB, far cheaper than
  // the 4 s the same bytes cost through the executable file path.
  EXPECT_GT(simulation_.Now().ToSeconds(), 0.15);
  EXPECT_LT(simulation_.Now().ToSeconds(), 1.0);
  EXPECT_EQ(ico.fetches_served(), 1u);
}

TEST_F(IcoTest, StreamToCachedDestinationIsFree) {
  ImplementationComponentObject ico(&home_, &transport_, &agent_,
                                    MakeComponent());
  remote_.CacheComponent(ico.id(), 550'000);
  bool done = false;
  ico.StreamTo(&remote_, [&](Status status) {
    EXPECT_TRUE(status.ok());
    done = true;
  });
  EXPECT_TRUE(done);  // immediate, no events needed
  EXPECT_EQ(simulation_.Now(), sim::SimTime::Zero());
  EXPECT_EQ(ico.fetches_served(), 0u);
}

}  // namespace
}  // namespace dcdo
