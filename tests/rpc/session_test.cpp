// RPC session slot machinery (src/rpc/session.*): the client pool's grant /
// release / FIFO-backpressure behavior, the server table's duplicate
// taxonomy, and the O(slots) memory bound of exactly-once state.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rpc/client.h"
#include "rpc/session.h"

namespace dcdo::rpc {
namespace {

// --- SessionPool ----------------------------------------------------------

TEST(SessionPoolTest, GrantsDistinctSlotsUpToTheBoundThenQueues) {
  SessionPool pool(/*slots=*/2);
  ObjectAddress server{2, 10, 1};

  std::vector<SlotGrant> grants;
  auto grab = [&]() {
    if (SlotGrant g = pool.TryAcquire(server); g.held()) {
      grants.push_back(g);
    } else {
      pool.Park(server, [&](SlotGrant parked) { grants.push_back(parked); });
    }
  };
  grab();
  grab();
  ASSERT_EQ(grants.size(), 2u);  // both granted inline
  EXPECT_EQ(grants[0].session_id, grants[1].session_id);
  EXPECT_NE(grants[0].slot, grants[1].slot);
  EXPECT_EQ(grants[0].seq, 1u);  // first occupancy of each slot
  EXPECT_EQ(grants[1].seq, 1u);
  EXPECT_EQ(pool.backpressure_waits(), 0u);

  // Third caller finds the session saturated: parked, counted.
  grab();
  EXPECT_EQ(grants.size(), 2u);
  EXPECT_EQ(pool.backpressure_waits(), 1u);
  EXPECT_EQ(pool.queued(), 1u);

  // Releasing a slot hands it straight to the waiter with the NEXT seq.
  pool.Release(server, grants[0]);
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(grants[2].slot, grants[0].slot);
  EXPECT_EQ(grants[2].seq, grants[0].seq + 1);
}

TEST(SessionPoolTest, QueuedCallersAdmitFifo) {
  SessionPool pool(/*slots=*/1);
  ObjectAddress server{2, 10, 1};
  SlotGrant first = pool.TryAcquire(server);
  ASSERT_TRUE(first.held());

  std::vector<int> admitted;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool.TryAcquire(server).held());
    pool.Park(server, [&admitted, i](SlotGrant) { admitted.push_back(i); });
  }
  EXPECT_EQ(pool.backpressure_waits(), 3u);

  // Each release admits exactly the longest waiter. The inline-admitted
  // waiter's grant is released right back, admitting the next.
  pool.Release(server, first);
  ASSERT_EQ(admitted, (std::vector<int>{0}));
  // (Grants handed to waiters advance the seq; the test only checks order.)
}

TEST(SessionPoolTest, SessionsAreKeyedByActivationNotNode) {
  SessionPool pool(/*slots=*/1);
  // Same (node, pid), different epoch = a different activation = a distinct
  // session: a rebound target must not inherit the predecessor's slot state.
  ObjectAddress old_epoch{2, 10, 1};
  ObjectAddress new_epoch{2, 10, 2};
  SlotGrant a = pool.TryAcquire(old_epoch);
  SlotGrant b = pool.TryAcquire(new_epoch);
  EXPECT_TRUE(a.held());
  EXPECT_TRUE(b.held());  // no queueing: separate sessions, separate slots
  EXPECT_NE(a.session_id, b.session_id);
}

TEST(SessionPoolTest, StaleGrantFromForeignSessionIsIgnored) {
  SessionPool pool(/*slots=*/1);
  ObjectAddress server{2, 10, 1};
  SlotGrant g = pool.TryAcquire(server);
  // A grant whose session id does not match (e.g. minted by another pool)
  // must not corrupt the free list.
  SlotGrant foreign = g;
  foreign.session_id = g.session_id + 999;
  pool.Release(server, foreign);
  // The real slot is still occupied: a second acquire finds no free slot.
  EXPECT_FALSE(pool.TryAcquire(server).held());
}

// --- ServerSessionTable ---------------------------------------------------

TEST(ServerSessionTableTest, DuplicateTaxonomy) {
  ServerSessionTable table;
  using D = ServerSessionTable::Disposition;

  // First contact materializes the session and admits for execution.
  EXPECT_EQ(table.Admit(1, 7, 0, 1).disposition, D::kExecute);
  EXPECT_EQ(table.session_count(), 1u);

  // Same seq before completion: the original is still executing.
  EXPECT_EQ(table.Admit(1, 7, 0, 1).disposition, D::kDropInFlight);

  MethodResult reply = MethodResult::Ok(ByteBuffer::FromString("cached"));
  table.Complete(1, 7, 0, 1, reply);

  // Same seq after completion: replay, with the cached payload.
  ServerSessionTable::Decision replay = table.Admit(1, 7, 0, 1);
  EXPECT_EQ(replay.disposition, D::kReplayReply);
  ASSERT_NE(replay.reply, nullptr);
  EXPECT_EQ(replay.reply->payload.ToString(), "cached");

  // The slot's next occupant executes; the predecessor's ghost is stale.
  EXPECT_EQ(table.Admit(1, 7, 0, 2).disposition, D::kExecute);
  EXPECT_EQ(table.Admit(1, 7, 0, 1).disposition, D::kDropStale);
}

TEST(ServerSessionTableTest, SkippedSeqStillExecutes) {
  // The client may abandon a call the server never saw (terminal timeout on
  // a partition) and the slot's next occupant then arrives with seq jumped
  // ahead. Monotone comparison, not equality-with-next, admits it.
  ServerSessionTable table;
  using D = ServerSessionTable::Disposition;
  EXPECT_EQ(table.Admit(1, 7, 2, 5).disposition, D::kExecute);
  EXPECT_EQ(table.Admit(1, 7, 2, 4).disposition, D::kDropStale);
}

TEST(ServerSessionTableTest, GhostCompletionCannotClobberSuccessor) {
  ServerSessionTable table;
  using D = ServerSessionTable::Disposition;
  EXPECT_EQ(table.Admit(1, 7, 0, 1).disposition, D::kExecute);
  // The slot moves on before call #1's parked handler completes.
  EXPECT_EQ(table.Admit(1, 7, 0, 2).disposition, D::kExecute);
  table.Complete(1, 7, 0, 1, MethodResult::Ok(ByteBuffer::FromString("old")));
  // Call #1's late completion was discarded: seq 2 is still in flight.
  EXPECT_EQ(table.Admit(1, 7, 0, 2).disposition, D::kDropInFlight);
  table.Complete(1, 7, 0, 2, MethodResult::Ok(ByteBuffer::FromString("new")));
  ServerSessionTable::Decision replay = table.Admit(1, 7, 0, 2);
  ASSERT_EQ(replay.disposition, D::kReplayReply);
  EXPECT_EQ(replay.reply->payload.ToString(), "new");
}

TEST(ServerSessionTableTest, MemoryStaysBoundedBySlotsNotCallCount) {
  // Any number of calls through a bounded slot set leaves O(slots) records:
  // exactly-once state does not grow with traffic.
  ServerSessionTable table;
  constexpr std::uint32_t kSlots = 4;
  for (std::uint64_t seq = 1; seq <= 10000; ++seq) {
    for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
      ASSERT_EQ(table.Admit(1, 7, slot, seq).disposition,
                ServerSessionTable::Disposition::kExecute);
      table.Complete(1, 7, slot, seq, MethodResult::Ok());
    }
  }
  EXPECT_EQ(table.session_count(), 1u);
  EXPECT_EQ(table.slot_count(), static_cast<std::size_t>(kSlots));
}

TEST(ServerSessionTableTest, CorruptSlotIndexIsRejectedNotAllocated) {
  ServerSessionTable table;
  EXPECT_EQ(table.Admit(1, 7, ServerSessionTable::kMaxSlots, 1).disposition,
            ServerSessionTable::Disposition::kDropStale);
  EXPECT_EQ(table.slot_count(), 0u);
  // seq 0 is the never-used sentinel; a wire value of 0 is equally bogus.
  EXPECT_EQ(table.Admit(1, 7, 0, 0).disposition,
            ServerSessionTable::Disposition::kDropStale);
}

// --- End-to-end through transport + client --------------------------------

sim::CostModel SessionModel(int slots) {
  sim::CostModel cost;
  cost.session_slots = slots;
  return cost;
}

class SessionRpcTest : public ::testing::Test {
 protected:
  SessionRpcTest()
      : network_(&simulation_, SessionModel(2)),
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

// The dedup_test headline scenario at two slots: a slow body's reply is
// lost, the retry replays the slot's cached answer, the body runs once.
TEST_F(SessionRpcTest, RetryAfterLostReplyReplaysFromSlot) {
  int body_runs = 0;
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation& inv, ReplyFn reply) {
        ++body_runs;
        EXPECT_NE(inv.session_id, 0u);  // the call really is sessioned
        EXPECT_EQ(inv.session_seq, 1u);
        simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                             [reply = std::move(reply)]() mutable {
                               reply(MethodResult::Ok(
                                   ByteBuffer::FromString("answer")));
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

  EXPECT_EQ(body_runs, 1);
  EXPECT_EQ(callback_runs, 1);
  EXPECT_EQ(payload, "answer");
  EXPECT_EQ(transport_.dedup_hits(), 1u);
  EXPECT_EQ(transport_.invocations_delivered(), 1u);
}

// Admission: with 2 slots and 3 concurrent calls, the third queues client-
// side and is admitted when a slot frees — every call completes, the server
// never sees more than `slots` of this client's calls in flight.
TEST_F(SessionRpcTest, SlotSaturationQueuesClientSide) {
  int in_flight = 0;
  int max_in_flight = 0;
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation&, ReplyFn reply) {
        max_in_flight = std::max(max_in_flight, ++in_flight);
        simulation_.Schedule(sim::SimDuration::Seconds(1.0),
                             [&in_flight, reply = std::move(reply)]() mutable {
                               --in_flight;
                               reply(MethodResult::Ok());
                             });
      });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});

  int replies = 0;
  for (int i = 0; i < 3; ++i) {
    client_.Invoke(target_, "work", {},
                   [&](Result<ByteBuffer> r) { replies += r.ok(); });
  }
  EXPECT_EQ(client_.backpressure_waits(), 1u);
  EXPECT_EQ(client_.queued_calls(), 1u);
  simulation_.Run();

  EXPECT_EQ(replies, 3);
  EXPECT_EQ(client_.queued_calls(), 0u);
  EXPECT_EQ(max_in_flight, 2);
}

// Re-registration (a new activation at the same (node, pid)) resets the
// server's slot state; the client's fresh-epoch session is distinct, so
// nothing cross-talks.
TEST_F(SessionRpcTest, ReRegistrationResetsServerSessions) {
  transport_.RegisterEndpoint(2, 10, 1,
                              [&](const MethodInvocation&, ReplyFn reply) {
                                reply(MethodResult::Ok());
                              });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  int replies = 0;
  client_.Invoke(target_, "first", {},
                 [&](Result<ByteBuffer> r) { replies += r.ok(); });
  simulation_.Run();
  ASSERT_EQ(replies, 1);
  const ServerSessionTable* old_table = transport_.EndpointSessions(2, 10);
  ASSERT_NE(old_table, nullptr);
  EXPECT_EQ(old_table->session_count(), 1u);

  transport_.RegisterEndpoint(2, 10, 2,
                              [&](const MethodInvocation&, ReplyFn reply) {
                                reply(MethodResult::Ok());
                              });
  const ServerSessionTable* fresh = transport_.EndpointSessions(2, 10);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->session_count(), 0u);
}

}  // namespace
}  // namespace dcdo::rpc
