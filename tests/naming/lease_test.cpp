// Lease/invalidation protocol coverage (DESIGN.md §13): LeaseTable's grant/
// expiry/drop lifecycle, granted leases, invalidation-beats-expiry, lost
// invalidations falling back to lease expiry, the client's mid-call switch
// to a pushed binding, a rebind storm against hundreds of leaseholders under
// the installed checkers, a partitioned leaseholder reconverging after heal,
// and Testbed's agent host under a partition.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "naming/binding_cache.h"
#include "naming/lease_table.h"
#include "rpc/client.h"
#include "runtime/testbed.h"

namespace dcdo {
namespace {

constexpr sim::NodeId kAgentNode = 9;
constexpr sim::SimDuration kLease = sim::SimDuration::Seconds(60.0);

class LeaseTableTest : public ::testing::Test {
 protected:
  static sim::SimTime At(double seconds) {
    return sim::SimTime{} + sim::SimDuration::Seconds(seconds);
  }

  LeaseTable table_;
  ObjectId object_ = ObjectId::Next(domains::kInstance);
};

TEST_F(LeaseTableTest, LiveHoldersAreOrderedByHolderId) {
  table_.Grant(object_, 5, At(0), At(60));
  table_.Grant(object_, 2, At(0), At(60));
  table_.Grant(object_, 9, At(0), At(60));
  EXPECT_EQ(table_.LiveHolders(object_, At(1)),
            (std::vector<std::uint64_t>{2, 5, 9}));
  EXPECT_EQ(table_.LiveCount(At(1)), 3u);
}

TEST_F(LeaseTableTest, ExpiredLeasesAreNotLive) {
  table_.Grant(object_, 1, At(0), At(60));
  table_.Grant(object_, 2, At(0), At(120));
  EXPECT_EQ(table_.LiveHolders(object_, At(90)),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(table_.LiveCount(At(90)), 1u);
  EXPECT_TRUE(table_.LiveHolders(object_, At(150)).empty());
  EXPECT_EQ(table_.LiveCount(At(150)), 0u);
}

TEST_F(LeaseTableTest, RegrantExtendsTheLease) {
  table_.Grant(object_, 1, At(0), At(60));
  table_.Grant(object_, 1, At(30), At(90));  // renewal, not a second lease
  EXPECT_EQ(table_.LiveHolders(object_, At(75)),
            (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(table_.LiveCount(At(75)), 1u);
}

TEST_F(LeaseTableTest, GrantPurgesExpiredSiblings) {
  table_.Grant(object_, 1, At(0), At(60));
  // Holder 1's lease is long dead by the time holder 2 shows up; the grant
  // sweeps it out so the table holds only live state.
  table_.Grant(object_, 2, At(100), At(160));
  EXPECT_EQ(table_.LiveHolders(object_, At(101)),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(table_.LiveCount(At(101)), 1u);
}

TEST_F(LeaseTableTest, DropForgetsTheObject) {
  table_.Grant(object_, 1, At(0), At(60));
  table_.Grant(object_, 2, At(0), At(60));
  table_.Drop(object_);
  EXPECT_TRUE(table_.LiveHolders(object_, At(1)).empty());
  EXPECT_TRUE(table_.empty());
}

TEST_F(LeaseTableTest, DropHolderForgetsOnlyThatHolder) {
  ObjectId other = ObjectId::Next(domains::kInstance);
  table_.Grant(object_, 1, At(0), At(60));
  table_.Grant(object_, 2, At(0), At(60));
  table_.Grant(other, 1, At(0), At(60));
  table_.DropHolder(1);
  EXPECT_EQ(table_.LiveHolders(object_, At(1)),
            (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(table_.LiveHolders(other, At(1)).empty());
  EXPECT_EQ(table_.LiveCount(At(1)), 1u);
}

sim::CostModel LeaseModel() {
  sim::CostModel cost;
  cost.binding_lease_duration = kLease;
  return cost;
}

class LeaseTest : public ::testing::Test {
 protected:
  LeaseTest() : network_(&simulation_, LeaseModel()), transport_(&network_) {
    for (sim::NodeId n = 1; n <= 5; ++n) network_.AddNode(n);
    network_.AddNode(kAgentNode);
    target_ = ObjectId::Next(domains::kInstance);
  }

  void SetUp() override {
    ASSERT_TRUE(agent_.Attach(&network_, kAgentNode).ok());
  }

  // Lets `duration` of sim time elapse (an empty event pins the clock).
  void Advance(sim::SimDuration duration) {
    simulation_.Schedule(duration, []() {});
    simulation_.Run();
  }

  sim::Simulation simulation_;
  sim::SimNetwork network_;
  rpc::RpcTransport transport_;
  BindingAgent agent_;
  ObjectId target_;
};

TEST_F(LeaseTest, ResolveGrantsLeaseAndRebindPushesFreshBinding) {
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  BindingCache cache(&agent_, /*node=*/1);
  ASSERT_TRUE(cache.Resolve(target_).ok());
  EXPECT_EQ(agent_.leases_granted(), 1u);
  EXPECT_EQ(agent_.live_leases(), 1u);

  // Migration: the agent pushes the replacement binding. The notice arrives
  // a network hop later — milliseconds, not the 25-35 s probe schedule, and
  // nowhere near the 60 s lease expiry.
  sim::SimTime migrated_at = simulation_.Now();
  agent_.Bind(target_, ObjectAddress{3, 20, 2});
  EXPECT_EQ(agent_.invalidations_sent(), 1u);
  simulation_.Run();

  EXPECT_EQ(agent_.invalidations_delivered(), 1u);
  EXPECT_EQ(cache.invalidations_received(), 1u);
  auto pushed = cache.CachedAddress(target_);
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(*pushed, (ObjectAddress{3, 20, 2}));
  EXPECT_LT((simulation_.Now() - migrated_at).ToSeconds(), 1.0);
  // The pushed entry is served directly — no second agent lookup.
  std::uint64_t lookups_before = agent_.lookups_served();
  ASSERT_TRUE(cache.Resolve(target_).ok());
  EXPECT_EQ(agent_.lookups_served(), lookups_before);
}

TEST_F(LeaseTest, UnbindPushesDropNotice) {
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  BindingCache cache(&agent_, /*node=*/1);
  ASSERT_TRUE(cache.Resolve(target_).ok());

  agent_.Unbind(target_);
  simulation_.Run();

  EXPECT_EQ(cache.invalidations_received(), 1u);
  EXPECT_FALSE(cache.Cached(target_));
  EXPECT_EQ(agent_.live_leases(), 0u);  // drop notices consume the leases
  EXPECT_FALSE(cache.Resolve(target_).ok());  // authoritative miss now
}

TEST_F(LeaseTest, LostInvalidationFallsBackToLeaseExpiry) {
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  BindingCache cache(&agent_, /*node=*/1);
  ASSERT_TRUE(cache.Resolve(target_).ok());

  // The holder is partitioned from the agent when the binding moves: the
  // push is silently dropped (exactly a real LAN's failure mode).
  network_.SetPartitioned(1, kAgentNode, true);
  agent_.Bind(target_, ObjectAddress{3, 20, 2});
  simulation_.Run();
  EXPECT_EQ(agent_.invalidations_sent(), 1u);
  EXPECT_EQ(cache.invalidations_received(), 0u);

  // Until the lease runs out the cache (correctly, per the protocol) still
  // serves the stale address...
  auto stale = cache.CachedAddress(target_);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, (ObjectAddress{2, 10, 1}));

  // ...but never past expiry: the entry then misses and the re-fetch (the
  // partition healed meanwhile) returns the fresh binding with a new lease.
  network_.SetPartitioned(1, kAgentNode, false);
  Advance(kLease + sim::SimDuration::Seconds(1.0));
  EXPECT_EQ(cache.CachedAddress(target_), std::nullopt);
  auto refetched = cache.Resolve(target_);
  ASSERT_TRUE(refetched.ok());
  EXPECT_EQ(*refetched, (ObjectAddress{3, 20, 2}));
  EXPECT_EQ(cache.lease_expirations(), 1u);
  EXPECT_EQ(agent_.leases_granted(), 2u);
}

TEST_F(LeaseTest, HealedLeaseholderReceivesLaterPushes) {
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  BindingCache cache(&agent_, /*node=*/1);
  ASSERT_TRUE(cache.Resolve(target_).ok());

  // Stale across a partition (push lost), then heal and reconverge through
  // expiry + re-fetch...
  network_.SetPartitioned(1, kAgentNode, true);
  agent_.Bind(target_, ObjectAddress{3, 20, 2});
  simulation_.Run();
  network_.SetPartitioned(1, kAgentNode, false);
  Advance(kLease + sim::SimDuration::Seconds(1.0));
  ASSERT_TRUE(cache.Resolve(target_).ok());

  // ...after which the holder is a first-class leaseholder again: the next
  // migration's push reaches it immediately.
  agent_.Bind(target_, ObjectAddress{4, 30, 3});
  simulation_.Run();
  EXPECT_EQ(cache.invalidations_received(), 1u);
  auto pushed = cache.CachedAddress(target_);
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(*pushed, (ObjectAddress{4, 30, 3}));
}

TEST_F(LeaseTest, DestroyedCacheStopsReceivingPushes) {
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  {
    BindingCache cache(&agent_, /*node=*/1);
    ASSERT_TRUE(cache.Resolve(target_).ok());
  }  // unregisters its holder handle; its leases die with it
  EXPECT_EQ(agent_.live_leases(), 0u);
  agent_.Bind(target_, ObjectAddress{3, 20, 2});
  simulation_.Run();
  EXPECT_EQ(agent_.invalidations_sent(), 0u);
}

// The rpc client under leases: a fresh call after the push resolves the new
// address straight from the cache (zero timeouts), and a call already in
// flight switches at its first timeout instead of finishing the probe
// schedule.
class LeaseClientTest : public LeaseTest {
 protected:
  void SetUp() override {
    LeaseTest::SetUp();  // the cache registers as a leaseholder only if the
                         // agent is attached before the client exists
    client_ = std::make_unique<rpc::RpcClient>(&transport_, &agent_,
                                               /*node=*/1);
  }

  void ServeEchoAt(sim::NodeId node, sim::ProcessId pid, std::uint64_t epoch) {
    transport_.RegisterEndpoint(
        node, pid, epoch, [](const rpc::MethodInvocation& inv,
                             rpc::ReplyFn reply) {
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
    agent_.Bind(target_, ObjectAddress{node, pid, epoch});
  }

  rpc::RpcClient& client() { return *client_; }

  std::unique_ptr<rpc::RpcClient> client_;
};

TEST_F(LeaseClientTest, PushedBindingServesNewCallsWithoutTimeouts) {
  ServeEchoAt(2, 10, 1);
  ASSERT_TRUE(client().InvokeBlocking(target_, "warmup").ok());

  // Migrate; the push lands in the client's cache within a network hop.
  transport_.UnregisterEndpoint(2, 10);
  ServeEchoAt(3, 20, 2);
  simulation_.Run();

  sim::SimTime start = simulation_.Now();
  ASSERT_TRUE(client().InvokeBlocking(target_, "afterMigration").ok());
  EXPECT_EQ(client().timeouts(), 0u);
  EXPECT_EQ(client().rebinds(), 0u);
  EXPECT_LT((simulation_.Now() - start).ToSeconds(), 1.0);
}

TEST_F(LeaseClientTest, InFlightCallSwitchesToPushedBindingAtFirstTimeout) {
  ServeEchoAt(2, 10, 1);
  ASSERT_TRUE(client().InvokeBlocking(target_, "warmup").ok());

  // The call goes out to the old address; the object migrates 2 s later.
  transport_.UnregisterEndpoint(2, 10);
  simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                       [this]() { ServeEchoAt(3, 20, 2); });
  sim::SimTime start = simulation_.Now();
  auto result = client().InvokeBlocking(target_, "midFlight");
  ASSERT_TRUE(result.ok());

  // One timeout (the attempt already on the wire), then the pushed binding
  // takes over — no stale retries, no rebind query, ~10 s instead of ~31 s.
  EXPECT_EQ(client().timeouts(), 1u);
  EXPECT_EQ(client().lease_rebinds(), 1u);
  EXPECT_EQ(client().rebinds(), 0u);
  double seconds = (simulation_.Now() - start).ToSeconds();
  EXPECT_LT(seconds, 12.0);
  sim::CostModel legacy;
  EXPECT_LT(seconds, legacy.StaleBindingDiscovery().ToSeconds());
}

// Rebind storm: hundreds of holders lease one binding; a single migration
// pushes to all of them. Runs over a full Testbed with the invariant checker
// and race detector installed — zero diagnostics allowed — and the whole
// fan-out must land in under a second of sim time.
TEST(LeaseStormTest, RebindStormConvergesSubSecondUnderChecker) {
  Testbed::Options options;
  options.host_count = 20;
  options.cost_model.binding_lease_duration = kLease;
  Testbed testbed(options);
  auto& transport = testbed.transport();
  ObjectId target = ObjectId::Next(domains::kInstance);

  transport.RegisterEndpoint(
      2, 7, 1, [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
        reply(rpc::MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  testbed.agent().Bind(target, ObjectAddress{2, 7, 1});

  constexpr int kHolders = 300;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  clients.reserve(kHolders);
  for (int i = 0; i < kHolders; ++i) {
    clients.push_back(testbed.MakeClient(i % options.host_count));
    ASSERT_TRUE(clients.back()->InvokeBlocking(target, "warmup").ok());
  }
  EXPECT_EQ(testbed.agent().live_leases(), static_cast<std::size_t>(kHolders));

  // One migration; every holder gets the fresh binding pushed.
  transport.UnregisterEndpoint(2, 7);
  transport.RegisterEndpoint(
      3, 8, 2, [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
        reply(rpc::MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  sim::SimTime migrated_at = testbed.simulation().Now();
  testbed.agent().Bind(target, ObjectAddress{3, 8, 2});
  testbed.RunAll();

  EXPECT_EQ(testbed.agent().invalidations_sent(),
            static_cast<std::uint64_t>(kHolders));
  EXPECT_EQ(testbed.agent().invalidations_delivered(),
            static_cast<std::uint64_t>(kHolders));
  EXPECT_LT((testbed.simulation().Now() - migrated_at).ToSeconds(), 1.0);
  for (const auto& client : clients) {
    auto pushed = client->cache().CachedAddress(target);
    ASSERT_TRUE(pushed.has_value());
    EXPECT_EQ(*pushed, (ObjectAddress{3, 8, 2}));
  }
  // And the storm left every invariant intact.
  auto* checker = testbed.checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_EQ(checker->diagnostics().count(), 0u)
      << checker->diagnostics().DumpText();
}

// Testbed's own wiring: with leases on, the agent lives on one extra host,
// host_count + 1, and pushes from there — so a partition between that host
// and one client strands only that client, which then falls back to lease
// expiry. The default model creates no agent host at all.
TEST(LeaseTestbedTest, PartitionFromAgentHostStrandsOnlyThatHolder) {
  {
    Testbed legacy;
    EXPECT_FALSE(legacy.network().HasNode(
        static_cast<sim::NodeId>(legacy.host_count() + 1)));
  }

  Testbed::Options options;
  options.host_count = 4;
  options.cost_model.binding_lease_duration = kLease;
  Testbed testbed(options);
  constexpr sim::NodeId kTestbedAgentNode = 5;
  ASSERT_TRUE(testbed.network().HasNode(kTestbedAgentNode));
  auto& transport = testbed.transport();
  auto serve = [&transport](const ObjectAddress& address) {
    transport.RegisterEndpoint(
        address.node, address.pid, address.epoch,
        [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
  };
  const ObjectAddress before{3, 7, 1};
  const ObjectAddress after{4, 8, 2};
  ObjectId target = ObjectId::Next(domains::kInstance);
  serve(before);
  testbed.agent().Bind(target, before);

  auto stranded = testbed.MakeClient(0);  // node 1
  auto reached = testbed.MakeClient(1);   // node 2
  sim::SimTime warmed_at = testbed.simulation().Now();
  ASSERT_TRUE(stranded->InvokeBlocking(target, "warmup").ok());
  ASSERT_TRUE(reached->InvokeBlocking(target, "warmup").ok());

  testbed.network().SetPartitioned(1, kTestbedAgentNode, true);
  transport.UnregisterEndpoint(before.node, before.pid);
  serve(after);
  sim::SimTime migrated_at = testbed.simulation().Now();
  testbed.agent().Bind(target, after);
  testbed.simulation().RunWhile(
      [&] { return reached->cache().CachedAddress(target) != after; });

  // Host 1 has the fresh binding one network hop after the migration.
  EXPECT_EQ(reached->cache().CachedAddress(target), after);
  const sim::CostModel& cost = testbed.cost_model();
  EXPECT_LE(testbed.simulation().Now() - migrated_at,
            cost.MessageTime(cost.invalidation_bytes));
  EXPECT_EQ(testbed.agent().invalidations_sent(), 2u);
  EXPECT_EQ(testbed.agent().invalidations_delivered(), 1u);

  // Host 0 lost the push: it serves the stale entry until its lease runs
  // out...
  auto advance_to = [&testbed](sim::SimTime when) {
    testbed.simulation().Schedule(when - testbed.simulation().Now(), []() {});
    testbed.RunAll();
  };
  advance_to(warmed_at + (kLease - sim::SimDuration::Seconds(1.0)));
  EXPECT_EQ(stranded->cache().CachedAddress(target), before);

  // ...and never past it: the next call re-fetches the fresh binding.
  advance_to(warmed_at + kLease + sim::SimDuration::Seconds(1.0));
  EXPECT_EQ(stranded->cache().CachedAddress(target), std::nullopt);
  ASSERT_TRUE(stranded->InvokeBlocking(target, "afterExpiry").ok());
  EXPECT_EQ(stranded->cache().CachedAddress(target), after);
  EXPECT_EQ(stranded->cache().lease_expirations(), 1u);
  EXPECT_EQ(stranded->timeouts(), 0u);
  auto* checker = testbed.checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_EQ(checker->diagnostics().count(), 0u)
      << checker->diagnostics().DumpText();
}

// Legacy guard: with leases off (the default cost model) nothing registers,
// nothing is pushed, and staleness is still discovered by timeout probing.
TEST(LeaseOffTest, DefaultModelTakesLegacyPath) {
  sim::Simulation simulation;
  sim::SimNetwork network(&simulation, sim::CostModel{});
  BindingAgent agent;
  EXPECT_FALSE(agent.leases_enabled());
  ObjectId target = ObjectId::Next(domains::kInstance);
  agent.Bind(target, ObjectAddress{2, 10, 1});
  BindingCache cache(&agent, /*node=*/1);
  ASSERT_TRUE(cache.Resolve(target).ok());
  EXPECT_EQ(agent.leases_granted(), 0u);
  agent.Bind(target, ObjectAddress{3, 20, 2});
  simulation.Run();
  EXPECT_EQ(agent.invalidations_sent(), 0u);
  // The cache still serves the (now stale) entry — the rpc layer's timeout
  // probing is the only discovery mechanism, exactly as before.
  auto cached = cache.CachedAddress(target);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, (ObjectAddress{2, 10, 1}));
}

}  // namespace
}  // namespace dcdo
