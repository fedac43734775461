#include "core/proxy.h"

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "component/ico.h"
#include "core/dcdo.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() {
    comp_a_ = testing::MakeEchoComponent(testbed_.registry(), "libA",
                                         {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(testbed_.registry(), "libB", {"f"});
    object_ = std::make_unique<Dcdo>("svc", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
    testbed_.host(1)->CacheComponent(comp_a_.id, comp_a_.code_bytes);
    testbed_.host(1)->CacheComponent(comp_b_.id, comp_b_.code_bytes);
    EXPECT_TRUE(object_->IncorporateCached(comp_a_).ok());
    EXPECT_TRUE(object_->IncorporateCached(comp_b_).ok());
    EXPECT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
    client_ = testbed_.MakeClient(3);
    proxy_ = std::make_unique<DcdoProxy>(client_.get(), object_->id());
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  std::unique_ptr<Dcdo> object_;
  std::unique_ptr<rpc::RpcClient> client_;
  std::unique_ptr<DcdoProxy> proxy_;
};

TEST_F(ProxyTest, FetchesAnnotatedInterface) {
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  ASSERT_EQ(proxy_->interface().size(), 1u);
  EXPECT_EQ(proxy_->interface()[0].function.name, "f");
  EXPECT_FALSE(proxy_->interface()[0].mandatory);
  EXPECT_TRUE(proxy_->Offers("f"));
  EXPECT_FALSE(proxy_->Offers("g"));
  EXPECT_FALSE(proxy_->IsAssured("f"));
}

TEST_F(ProxyTest, MandatoryAndPermanentVisibleToClients) {
  ASSERT_TRUE(object_->MarkMandatory("f").ok());
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  EXPECT_TRUE(proxy_->IsAssured("f"));
  EXPECT_FALSE(proxy_->interface()[0].permanent);

  ASSERT_TRUE(object_->MarkPermanent("f", comp_a_.id).ok());
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  EXPECT_TRUE(proxy_->interface()[0].permanent);
}

TEST_F(ProxyTest, HugeInterfaceCountRejectedBeforeReserving) {
  // A getInterface reply that claims 2^61 entries is refused as an overrun
  // before any entry is read or any storage is reserved for it.
  testbed_.transport().RegisterEndpoint(
      2, 9001, 1, [](const rpc::MethodInvocation&, rpc::ReplyFn reply) {
        Writer writer;
        writer.WriteU64(std::uint64_t{1} << 61);
        reply(rpc::MethodResult::Ok(std::move(writer).Take()));
      });
  ObjectId liar = ObjectId::Next(domains::kInstance);
  testbed_.agent().Bind(liar, ObjectAddress{2, 9001, 1});
  DcdoProxy proxy(client_.get(), liar);
  EXPECT_EQ(proxy.RefreshInterface().code(), ErrorCode::kOutOfRange);
  EXPECT_TRUE(proxy.interface().empty());
}

TEST_F(ProxyTest, CallLazilyFetchesInterface) {
  EXPECT_FALSE(proxy_->interface_known());
  auto result = proxy_->Call("f", ByteBuffer::FromString("x"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libA.f:x");
  EXPECT_TRUE(proxy_->interface_known());
}

TEST_F(ProxyTest, UnknownFunctionRefusedAfterOneRefresh) {
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  std::uint64_t before = proxy_->refreshes();
  auto result = proxy_->Call("ghost", ByteBuffer{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFunctionMissing);
  EXPECT_EQ(proxy_->refreshes(), before + 1) << "refreshed once, then gave up";
}

TEST_F(ProxyTest, StaleInterfaceDiscoverNewFunction) {
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  EXPECT_FALSE(proxy_->Offers("g"));
  // The object evolves to add g after the proxy cached the interface.
  ASSERT_TRUE(object_->EnableFunction("g", comp_a_.id).ok());
  auto result = proxy_->Call("g", ByteBuffer::FromString("y"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libA.g:y");
  EXPECT_TRUE(proxy_->Offers("g"));
}

// The disappearing-exported-function problem, handled: the implementation is
// switched between the proxy's interface fetch and its call; the proxy
// refreshes and retries, landing on the replacement.
TEST_F(ProxyTest, RetriesWhenImplementationSwitched) {
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  // Disable then enable the other implementation: a client that cached the
  // address of libA.f would break; the proxy's named call keeps working.
  ASSERT_TRUE(object_->SwitchImplementation("f", comp_b_.id).ok());
  auto result = proxy_->Call("f", ByteBuffer::FromString("z"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToString(), "libB.f:z");
}

TEST_F(ProxyTest, GenuinelyGoneSurfacesTypedError) {
  ASSERT_TRUE(proxy_->RefreshInterface().ok());
  ASSERT_TRUE(object_->DisableFunction("f", comp_a_.id).ok());
  auto result = proxy_->Call("f", ByteBuffer{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kFunctionDisabled);
  EXPECT_EQ(proxy_->retries(), 0u)
      << "no replacement appeared, so no retry was made";
}

TEST_F(ProxyTest, FetchVersionRoundTrips) {
  auto version = proxy_->FetchVersion();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, VersionId::Root());
}

}  // namespace
}  // namespace dcdo
