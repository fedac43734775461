// Session replay on reconnect (DESIGN.md §9.2).
//
// Kill/restart scenario: a server dies with a session's worth of calls in
// flight (the kill eats the sends — no body ever runs at the dead
// activation) and the object reactivates elsewhere. Before replay, every
// in-flight call recovered INDEPENDENTLY: each burned the remainder of its
// own timeout-retry schedule before noticing the pushed fresh binding, so
// the session's total recovery time scaled with the retry schedule. With
// replay, the first call to discover the move (here: the first timeout after
// the lease push) drags every sibling call to the same target along — their
// pending timers are cancelled and they resend at the fresh activation on
// the spot, under new slots of that activation's session. Each body still
// executes exactly once: the restarted server sees one send per call, and
// any retry that does land there carries the same (slot, seq) and replays.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpc/client.h"

namespace dcdo::rpc {
namespace {

constexpr sim::NodeId kClientNode = 1;
constexpr sim::NodeId kAgentNode = 9;
// The killed activation: never registered with the transport, so every send
// to it vanishes — the process died just as the calls went out.
const ObjectAddress kKilled{2, 10, 1};
// The restarted activation, live from t = 3 s.
const ObjectAddress kRestarted{3, 20, 2};

struct ScenarioOutcome {
  // Per-method body execution counts at the restarted server.
  std::map<std::string, int> body_runs;
  // Sim completion time of each call, in start order.
  std::vector<sim::SimTime> done_at;
  std::uint64_t session_replays = 0;
  std::uint64_t lease_rebinds = 0;
};

// Three staggered calls hit a just-killed server; it restarts at t = 3 s and
// the directory pushes the fresh binding to the client's leased cache.
ScenarioOutcome RunKillRestart(int stale_retry_count) {
  sim::CostModel cost;
  cost.binding_lease_duration = sim::SimDuration::Seconds(300.0);
  cost.session_slots = 4;
  cost.stale_retry_count = stale_retry_count;

  sim::Simulation simulation;
  sim::SimNetwork network(&simulation, cost);
  RpcTransport transport(&network);
  network.AddNode(kClientNode);
  network.AddNode(kKilled.node);
  network.AddNode(kRestarted.node);
  network.AddNode(kAgentNode);

  BindingAgent agent;
  EXPECT_TRUE(agent.Attach(&network, kAgentNode).ok());
  RpcClient client(&transport, &agent, kClientNode);

  ObjectId target = ObjectId::Next(domains::kInstance);
  agent.Bind(target, kKilled);

  ScenarioOutcome outcome;
  // The restart: the new activation starts serving and the directory learns
  // the new address, which leases push into the client's cache.
  simulation.Schedule(sim::SimDuration::Seconds(3.0), [&]() {
    transport.RegisterEndpoint(
        kRestarted.node, kRestarted.pid, kRestarted.epoch,
        [&outcome](const MethodInvocation& inv, ReplyFn reply) {
          ++outcome.body_runs[std::string(inv.method_name())];
          reply(MethodResult::Ok(ByteBuffer::FromString(
              std::string(inv.method_name()))));
        });
    agent.Bind(target, kRestarted);
  });

  // Staggered starts at 0/1/2 s: all three are on the wire toward the dead
  // activation when it "restarts", with timers due at 10/11/12 s.
  constexpr int kCalls = 3;
  outcome.done_at.resize(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    simulation.Schedule(sim::SimDuration::Seconds(static_cast<double>(i)),
                        [&, i]() {
                          client.Invoke(target, "m" + std::to_string(i), {},
                                        [&, i](Result<ByteBuffer> result) {
                                          EXPECT_TRUE(result.ok())
                                              << result.status().ToString();
                                          outcome.done_at[static_cast<
                                              std::size_t>(i)] =
                                              simulation.Now();
                                        });
                        });
  }
  simulation.Run();
  outcome.session_replays = client.session_replays();
  outcome.lease_rebinds = client.lease_rebinds();
  return outcome;
}

TEST(SessionReplayTest, RestartRecoversWholeSessionAtFirstDiscovery) {
  ScenarioOutcome outcome = RunKillRestart(/*stale_retry_count=*/2);

  // Exactly-once: the restarted server ran each call's body once, despite
  // the original sends, the discoverer's switch, and the two replays.
  ASSERT_EQ(outcome.body_runs.size(), 3u);
  for (const auto& [method, runs] : outcome.body_runs) {
    EXPECT_EQ(runs, 1) << method;
  }

  // The first timeout (t = 10 s, call m0) saw the pushed binding and dragged
  // m1 and m2 along; only m0 consumed a pushed-rebind round itself.
  EXPECT_EQ(outcome.session_replays, 2u);
  EXPECT_EQ(outcome.lease_rebinds, 1u);

  // All three completed before m1's own 11 s timer would even have fired —
  // the replayed calls never re-entered their own probe schedules.
  for (sim::SimTime done : outcome.done_at) {
    EXPECT_GT(done - sim::SimTime{}, sim::SimDuration::Seconds(10.0));
    EXPECT_LT(done - sim::SimTime{}, sim::SimDuration::Seconds(11.0));
  }
}

TEST(SessionReplayTest, RecoveryTimeIndependentOfRetryScheduleLength) {
  // Recovery hinges on the FIRST discovery (one timeout after the push), not
  // on how long each call's own probe schedule would run: quadrupling the
  // retry schedule must not move a single completion timestamp.
  ScenarioOutcome short_schedule = RunKillRestart(/*stale_retry_count=*/2);
  ScenarioOutcome long_schedule = RunKillRestart(/*stale_retry_count=*/8);

  ASSERT_EQ(short_schedule.done_at.size(), long_schedule.done_at.size());
  for (std::size_t i = 0; i < short_schedule.done_at.size(); ++i) {
    EXPECT_EQ(short_schedule.done_at[i].nanos(),
              long_schedule.done_at[i].nanos())
        << "call " << i;
  }
  EXPECT_EQ(short_schedule.session_replays, 2u);
  EXPECT_EQ(long_schedule.session_replays, 2u);
}

// A call still queued for a slot when its target moves follows the session
// too. With one slot, call B parks behind call A at the killed activation.
// Leases are off, so A discovers the move through its own stale-binding
// schedule and the directory refresh (~30.9 s). The refresh retargets B
// while it is still parked; when A finishes and hands back the stale slot,
// B acquires at the restarted activation instead of attempting the dead one
// and paying a second stale-binding schedule.
TEST(SessionReplayTest, ParkedCallFollowsTheMoveInsteadOfProbingTheDeadActivation) {
  sim::CostModel cost;
  cost.session_slots = 1;

  sim::Simulation simulation;
  sim::SimNetwork network(&simulation, cost);
  RpcTransport transport(&network);
  network.AddNode(kClientNode);
  network.AddNode(kKilled.node);
  network.AddNode(kRestarted.node);

  BindingAgent agent;
  RpcClient client(&transport, &agent, kClientNode);
  ObjectId target = ObjectId::Next(domains::kInstance);
  agent.Bind(target, kKilled);

  std::map<std::string, int> body_runs;
  simulation.Schedule(sim::SimDuration::Seconds(3.0), [&]() {
    transport.RegisterEndpoint(
        kRestarted.node, kRestarted.pid, kRestarted.epoch,
        [&body_runs](const MethodInvocation& inv, ReplyFn reply) {
          ++body_runs[std::string(inv.method_name())];
          reply(MethodResult::Ok());
        });
    agent.Bind(target, kRestarted);
  });

  sim::SimTime a_done;
  sim::SimTime b_done;
  client.Invoke(target, "a", {}, [&](Result<ByteBuffer> result) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    a_done = simulation.Now();
  });
  client.Invoke(target, "b", {}, [&](Result<ByteBuffer> result) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    b_done = simulation.Now();
  });
  EXPECT_EQ(client.queued_calls(), 1u);  // B is parked behind A
  simulation.Run();

  ASSERT_EQ(body_runs.size(), 2u);
  EXPECT_EQ(body_runs["a"], 1);
  EXPECT_EQ(body_runs["b"], 1);
  // A paid the stale-binding schedule once; B rode on A's discovery.
  EXPECT_GE(a_done - sim::SimTime{}, cost.StaleBindingDiscovery());
  EXPECT_GE(b_done, a_done);
  EXPECT_LT(b_done - a_done, cost.StaleBindingDiscovery());
  EXPECT_LT(b_done - a_done, cost.invocation_timeout);
  EXPECT_EQ(client.rebinds(), 1u);
  EXPECT_EQ(client.timeouts(), 3u);
}

}  // namespace
}  // namespace dcdo::rpc
