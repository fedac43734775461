// Exactly-once dispatch through client + transport on the default
// CostModel: every call carries its session triple and the endpoint's
// ServerSessionTable absorbs duplicates.
//
// The headline scenario is the one that motivated deduplication: a client
// timeout does NOT mean the attempt was lost. A slow first attempt plus its
// retry can both arrive, and without deduplication both execute the method
// body — disastrous for non-idempotent configuration calls. These tests pin
// the behaviors: an in-flight duplicate is dropped, a completed duplicate
// replays the cached reply without re-running the body, co-located clients
// never collide, and a re-registered activation starts with fresh state.
#include <gtest/gtest.h>

#include <string>

#include "rpc/client.h"

namespace dcdo::rpc {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  DedupTest()
      : network_(&simulation_, sim::CostModel{}),
        transport_(&network_),
        client_(&transport_, &agent_, /*node=*/1) {
    network_.AddNode(1);
    network_.AddNode(2);
    target_ = ObjectId::Next(domains::kInstance);
  }

  sim::Simulation simulation_;
  sim::SimNetwork network_;
  RpcTransport transport_;
  BindingAgent agent_;
  RpcClient client_;
  ObjectId target_;
};

// Both attempts deliver, the body runs once, the client gets one reply.
//
// Timeline (default CostModel: 10 s timeout):
//   t~0   attempt #1 arrives; the handler runs the body and parks its reply
//         for 2 s (a slow method, not a lost message).
//   t=1   the 1<->2 link partitions.
//   t=2   the parked reply is sent — and dropped at the partition. The
//         *execution* already happened; only the answer was lost.
//   t=3   the partition heals.
//   t=10  the client times out and retries the same binding. The retry
//         arrives under the same (session, slot, seq), the slot holds the
//         completed answer, and it is replayed WITHOUT running the body
//         again.
TEST_F(DedupTest, RetryAfterLostReplyReplaysCachedAnswer) {
  int body_runs = 0;
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation& inv, ReplyFn reply) {
        ++body_runs;
        EXPECT_NE(inv.session_id, 0u);  // the default path is sessioned
        ByteBuffer answer =
            ByteBuffer::FromString("answer#" + std::to_string(body_runs) +
                                   ":" + std::string(inv.method_name()));
        simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                             [reply = std::move(reply),
                              answer = std::move(answer)]() mutable {
                               reply(MethodResult::Ok(std::move(answer)));
                             });
      });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});

  simulation_.Schedule(sim::SimDuration::Seconds(1.0),
                       [&]() { network_.SetPartitioned(1, 2, true); });
  simulation_.Schedule(sim::SimDuration::Seconds(3.0),
                       [&]() { network_.SetPartitioned(1, 2, false); });

  int callback_runs = 0;
  std::string payload;
  client_.Invoke(target_, "transferFunds", {}, [&](Result<ByteBuffer> result) {
    ++callback_runs;
    ASSERT_TRUE(result.ok());
    payload = result->ToString();
  });
  simulation_.Run();

  EXPECT_EQ(body_runs, 1);     // exactly-once execution
  EXPECT_EQ(callback_runs, 1);  // exactly one reply surfaced
  EXPECT_EQ(payload, "answer#1:transferFunds");  // ...and it is attempt #1's
  EXPECT_EQ(transport_.dedup_hits(), 1u);
  EXPECT_EQ(client_.timeouts(), 1u);
  EXPECT_EQ(client_.rebinds(), 0u);
  // The body ran once, so delivery was counted once; the replay was not a
  // second delivery.
  EXPECT_EQ(transport_.invocations_delivered(), 1u);
}

// A duplicate of a call whose original is STILL executing is dropped
// outright: the parked first attempt will answer, and that answer completes
// the client's call even though the client had already timed out attempt #1.
TEST_F(DedupTest, InFlightDuplicateIsDropped) {
  int body_runs = 0;
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation&, ReplyFn reply) {
        ++body_runs;
        // Parked past the 10 s client timeout: the retry arrives while the
        // original is still "executing".
        simulation_.Schedule(sim::SimDuration::Seconds(15.0),
                             [reply = std::move(reply)]() mutable {
                               reply(MethodResult::Ok(
                                   ByteBuffer::FromString("slowAnswer")));
                             });
      });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});

  int callback_runs = 0;
  std::string payload;
  client_.Invoke(target_, "slowMethod", {}, [&](Result<ByteBuffer> result) {
    ++callback_runs;
    ASSERT_TRUE(result.ok());
    payload = result->ToString();
  });
  simulation_.Run();

  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(callback_runs, 1);
  EXPECT_EQ(payload, "slowAnswer");
  // The 10 s retry found the in-flight entry and was dropped; no cached
  // reply existed yet, so nothing was replayed.
  EXPECT_GE(transport_.dedup_hits(), 1u);
  EXPECT_EQ(transport_.invocations_delivered(), 1u);
}

// Two clients on the SAME node must not collide in a server's session
// table: session ids come from a process-global allocator, so concurrent
// calls from co-located clients occupy distinct (origin, session) keys even
// though both take slot 0 with seq 1.
TEST_F(DedupTest, CoLocatedClientsDoNotCollide) {
  int body_runs = 0;
  transport_.RegisterEndpoint(2, 10, 1,
                              [&](const MethodInvocation&, ReplyFn reply) {
                                ++body_runs;
                                reply(MethodResult::Ok());
                              });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});

  RpcClient second(&transport_, &agent_, /*node=*/1);
  int replies = 0;
  client_.Invoke(target_, "fromFirst", {},
                 [&](Result<ByteBuffer> r) { replies += r.ok(); });
  second.Invoke(target_, "fromSecond", {},
                [&](Result<ByteBuffer> r) { replies += r.ok(); });
  simulation_.Run();

  EXPECT_EQ(body_runs, 2);
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(transport_.dedup_hits(), 0u);
  const ServerSessionTable* sessions = transport_.EndpointSessions(2, 10);
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->session_count(), 2u);
}

// An endpoint that re-registers (new activation, same (node, pid)) gets a
// FRESH session table; a reply parked by the old activation lands harmlessly
// in the old table instead of poisoning the successor's. (The test name
// predates the session table.)
TEST_F(DedupTest, ReRegistrationResetsWindow) {
  int old_runs = 0;
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation&, ReplyFn reply) {
        ++old_runs;
        // Parked forever-ish; fires long after the endpoint is replaced.
        simulation_.Schedule(sim::SimDuration::Seconds(60.0),
                             [reply = std::move(reply)]() mutable {
                               reply(MethodResult::Ok());
                             });
      });

  // Hand-set session triples drive the table directly.
  auto sessioned = [](const char* method, std::uint64_t epoch) {
    MethodInvocation invocation;
    invocation.method = method;
    invocation.expected_epoch = epoch;
    invocation.session_id = 777;
    invocation.session_slot = 0;
    invocation.session_seq = 1;
    return invocation;
  };
  MethodInvocation first = sessioned("toOldActivation", 1);
  transport_.Invoke(1, 2, 10, std::move(first), [](MethodResult) {});
  // Let the first invocation land on the old activation before replacing it.
  int new_body_runs = 0;
  simulation_.Schedule(sim::SimDuration::Seconds(2.0), [&]() {
    transport_.RegisterEndpoint(2, 10, 2,
                                [&](const MethodInvocation&, ReplyFn reply) {
                                  ++new_body_runs;
                                  reply(MethodResult::Ok());
                                });
    // Same (session, slot, seq) as the old activation saw.
    MethodInvocation second = sessioned("toNewActivation", 2);
    transport_.Invoke(1, 2, 10, std::move(second), [](MethodResult) {});
  });
  simulation_.Run();

  EXPECT_EQ(old_runs, 1);
  EXPECT_EQ(new_body_runs, 1);  // fresh table: not a duplicate here
  EXPECT_EQ(transport_.dedup_hits(), 0u);
}

}  // namespace
}  // namespace dcdo::rpc
