#include "rpc/transport.h"

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace dcdo::rpc {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : network_(&simulation_, sim::CostModel{}), transport_(&network_) {
    network_.AddNode(1);
    network_.AddNode(2);
  }

  // A hand-built call: the epoch it expects and a session triple, as every
  // RpcClient attempt carries (each call takes the slot's next seq).
  MethodInvocation MakeCall(const std::string& method,
                            std::uint64_t epoch = 1) {
    MethodInvocation invocation;
    invocation.target = ObjectId::Next(domains::kInstance);
    invocation.method = method;
    invocation.expected_epoch = epoch;
    invocation.session_id = 1;
    invocation.session_slot = 0;
    invocation.session_seq = ++seq_;
    return invocation;
  }

  std::uint64_t seq_ = 0;
  sim::Simulation simulation_;
  sim::SimNetwork network_;
  RpcTransport transport_;
};

TEST_F(TransportTest, RoundTripDeliversAndReplies) {
  transport_.RegisterEndpoint(2, 10, 1,
                              [](const MethodInvocation& inv, ReplyFn reply) {
                                EXPECT_EQ(inv.method, "ping");
                                reply(MethodResult::Ok(
                                    ByteBuffer::FromString("pong")));
                              });
  std::string got;
  transport_.Invoke(1, 2, 10, MakeCall("ping"),
                    [&](MethodResult result) {
                      ASSERT_TRUE(result.status.ok());
                      got = result.payload.ToString();
                    });
  simulation_.Run();
  EXPECT_EQ(got, "pong");
  EXPECT_EQ(transport_.invocations_delivered(), 1u);
}

TEST_F(TransportTest, CallToDeadProcessVanishes) {
  bool replied = false;
  transport_.Invoke(1, 2, 999, MakeCall("ping"),
                    [&](MethodResult) { replied = true; });
  simulation_.Run();
  EXPECT_FALSE(replied);
  EXPECT_EQ(transport_.invocations_delivered(), 0u);
}

// An invocation carrying a previous activation's epoch is discarded — the
// signal behind stale-binding detection.
TEST_F(TransportTest, EpochMismatchDiscards) {
  transport_.RegisterEndpoint(2, 10, /*epoch=*/5,
                              [](const MethodInvocation&, ReplyFn reply) {
                                reply(MethodResult::Ok());
                              });
  bool replied = false;
  transport_.Invoke(1, 2, 10, MakeCall("ping", /*epoch=*/4),
                    [&](MethodResult) { replied = true; });
  simulation_.Run();
  EXPECT_FALSE(replied);
  EXPECT_EQ(transport_.epoch_rejections(), 1u);
}

TEST_F(TransportTest, UnregisterKillsEndpoint) {
  transport_.RegisterEndpoint(2, 10, 1,
                              [](const MethodInvocation&, ReplyFn reply) {
                                reply(MethodResult::Ok());
                              });
  transport_.UnregisterEndpoint(2, 10);
  EXPECT_FALSE(transport_.EndpointAlive(2, 10));
  bool replied = false;
  transport_.Invoke(1, 2, 10, MakeCall("ping"),
                    [&](MethodResult) { replied = true; });
  simulation_.Run();
  EXPECT_FALSE(replied);
}

TEST_F(TransportTest, HandlerMayDeferReply) {
  // The handler parks the reply and sends it 2 s later — the shape of a
  // DCDO thread blocked on an outcall.
  transport_.RegisterEndpoint(
      2, 10, 1, [this](const MethodInvocation&, ReplyFn reply) {
        simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                             [reply = std::move(reply)]() mutable {
                               reply(MethodResult::Ok());
                             });
      });
  bool replied = false;
  transport_.Invoke(1, 2, 10, MakeCall("slow"),
                    [&](MethodResult) { replied = true; });
  simulation_.Run();
  EXPECT_TRUE(replied);
  EXPECT_GT(simulation_.Now().ToSeconds(), 2.0);
}

TEST_F(TransportTest, ErrorStatusTravelsBack) {
  transport_.RegisterEndpoint(2, 10, 1,
                              [](const MethodInvocation& inv, ReplyFn reply) {
                                reply(MethodResult::Error(FunctionMissingError(
                                    "no " + inv.method)));
                              });
  Status got;
  transport_.Invoke(1, 2, 10, MakeCall("gone"),
                    [&](MethodResult result) { got = result.status; });
  simulation_.Run();
  EXPECT_EQ(got.code(), ErrorCode::kFunctionMissing);
}

TEST_F(TransportTest, WireSizeIncludesHeaderMethodAndArgs) {
  MethodInvocation invocation = MakeCall("doWork");
  invocation.SetArgs(ByteBuffer::Opaque(100));
  EXPECT_EQ(invocation.WireSize(),
            kHeaderBytes + 6 + kSessionWireBytes + 100);
  MethodResult result = MethodResult::Ok(ByteBuffer::Opaque(32));
  EXPECT_EQ(result.WireSize(), kHeaderBytes + 32);
}

}  // namespace
}  // namespace dcdo::rpc
