#include "sim/host.h"

#include <gtest/gtest.h>

#include "common/object_id.h"

namespace dcdo::sim {
namespace {

class HostTest : public ::testing::Test {
 protected:
  HostTest()
      : network_(&simulation_, CostModel{}),
        host_(&simulation_, &network_, 1, Architecture::kX86Linux) {}

  Simulation simulation_;
  SimNetwork network_;
  SimHost host_;
};

TEST_F(HostTest, ArchitectureNames) {
  EXPECT_EQ(ArchitectureName(Architecture::kX86Linux), "x86-linux");
  EXPECT_EQ(ArchitectureName(Architecture::kSparcSolaris), "sparc-solaris");
  EXPECT_EQ(ArchitectureName(Architecture::kAlphaOsf), "alpha-osf");
  EXPECT_EQ(ArchitectureName(Architecture::kX86Nt), "x86-nt");
}

TEST_F(HostTest, SpawnChargesProcessCost) {
  ObjectId owner = ObjectId::Next(domains::kInstance);
  ProcessId pid = 0;
  host_.SpawnProcess(owner, 550'000, [&](Result<ProcessId> p) {
    ASSERT_TRUE(p.ok());
    pid = *p;
  });
  EXPECT_EQ(pid, 0u);  // not yet
  simulation_.Run();
  ASSERT_NE(pid, 0u);
  EXPECT_TRUE(host_.ProcessAlive(pid));
  EXPECT_EQ(host_.ProcessOwner(pid), owner);
  // Spawn (1.6 s) + executable load from disk.
  EXPECT_GT(simulation_.Now().ToSeconds(), 1.6);
  EXPECT_LT(simulation_.Now().ToSeconds(), 2.0);
}

TEST_F(HostTest, AdoptProcessIsImmediateAndFree) {
  ObjectId owner = ObjectId::Next(domains::kIco);
  ProcessId pid = host_.AdoptProcess(owner);
  EXPECT_TRUE(host_.ProcessAlive(pid));
  EXPECT_EQ(simulation_.Now(), SimTime::Zero());
}

TEST_F(HostTest, KillProcessRemoves) {
  ProcessId pid = host_.AdoptProcess(ObjectId::Next(domains::kInstance));
  EXPECT_TRUE(host_.KillProcess(pid).ok());
  EXPECT_FALSE(host_.ProcessAlive(pid));
  EXPECT_EQ(host_.KillProcess(pid).code(), ErrorCode::kNotFound);
}

TEST_F(HostTest, SpawnOnDeadHostFailsUnavailable) {
  host_.SetUp(false);
  int calls = 0;
  Status status;
  host_.SpawnProcess(ObjectId::Next(domains::kInstance), 1024,
                     [&](Result<ProcessId> pid) {
                       ++calls;
                       status = pid.status();
                     });
  simulation_.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST_F(HostTest, FileStore) {
  EXPECT_FALSE(host_.HasFile("exec/a"));
  host_.StoreFile("exec/a", 5'100'000);
  EXPECT_TRUE(host_.HasFile("exec/a"));
  EXPECT_EQ(host_.FileSize("exec/a"), 5'100'000u);
  host_.RemoveFile("exec/a");
  EXPECT_FALSE(host_.HasFile("exec/a"));
  EXPECT_EQ(host_.FileSize("exec/a"), std::nullopt);
}

TEST_F(HostTest, ComponentCache) {
  ObjectId comp = ObjectId::Next(domains::kComponent);
  EXPECT_FALSE(host_.ComponentCached(comp));
  host_.CacheComponent(comp, 64 * 1024);
  EXPECT_TRUE(host_.ComponentCached(comp));
  EXPECT_EQ(host_.CachedComponentSize(comp), 64u * 1024);
  EXPECT_EQ(host_.cached_component_count(), 1u);
  host_.EvictComponent(comp);
  EXPECT_FALSE(host_.ComponentCached(comp));
}

// ===== Bounded component cache (LRU) =====

class BoundedCacheHostTest : public ::testing::Test {
 protected:
  static CostModel SmallCache() {
    CostModel cost;
    cost.component_cache_capacity = 2;
    return cost;
  }
  BoundedCacheHostTest()
      : network_(&simulation_, SmallCache()),
        host_(&simulation_, &network_, 1, Architecture::kX86Linux) {}

  Simulation simulation_;
  SimNetwork network_;
  SimHost host_;
};

TEST_F(BoundedCacheHostTest, EvictsLeastRecentlyUsed) {
  ObjectId a = ObjectId::Next(domains::kComponent);
  ObjectId b = ObjectId::Next(domains::kComponent);
  ObjectId c = ObjectId::Next(domains::kComponent);
  host_.CacheComponent(a, 100);
  host_.CacheComponent(b, 200);
  host_.CacheComponent(c, 300);  // capacity 2: a (oldest) goes
  EXPECT_FALSE(host_.ComponentCached(a));
  EXPECT_TRUE(host_.ComponentCached(b));
  EXPECT_TRUE(host_.ComponentCached(c));
  EXPECT_EQ(host_.cached_component_count(), 2u);
  EXPECT_EQ(host_.component_evictions(), 1u);
}

TEST_F(BoundedCacheHostTest, LookupRefreshesRecency) {
  ObjectId a = ObjectId::Next(domains::kComponent);
  ObjectId b = ObjectId::Next(domains::kComponent);
  ObjectId c = ObjectId::Next(domains::kComponent);
  host_.CacheComponent(a, 100);
  host_.CacheComponent(b, 200);
  EXPECT_TRUE(host_.ComponentCached(a));  // touch: a becomes most-recent
  host_.CacheComponent(c, 300);           // so b, not a, is evicted
  EXPECT_TRUE(host_.ComponentCached(a));
  EXPECT_FALSE(host_.ComponentCached(b));
  EXPECT_TRUE(host_.ComponentCached(c));
}

TEST_F(BoundedCacheHostTest, RecacheUpdatesInPlace) {
  ObjectId a = ObjectId::Next(domains::kComponent);
  ObjectId b = ObjectId::Next(domains::kComponent);
  host_.CacheComponent(a, 100);
  host_.CacheComponent(b, 200);
  host_.CacheComponent(a, 150);  // refresh, not a third entry
  EXPECT_EQ(host_.cached_component_count(), 2u);
  EXPECT_EQ(host_.CachedComponentSize(a), 150u);
  EXPECT_EQ(host_.component_evictions(), 0u);
}

// Capacity 0 disables the bound entirely.
TEST(UnboundedCacheHostTest, ZeroCapacityNeverEvicts) {
  Simulation simulation;
  CostModel cost;
  cost.component_cache_capacity = 0;
  SimNetwork network(&simulation, cost);
  SimHost host(&simulation, &network, 1, Architecture::kX86Linux);
  for (int i = 0; i < 100; ++i) {
    host.CacheComponent(ObjectId::Next(domains::kComponent), 64);
  }
  EXPECT_EQ(host.cached_component_count(), 100u);
  EXPECT_EQ(host.component_evictions(), 0u);
}

TEST_F(HostTest, PidsAreUnique) {
  ProcessId a = host_.AdoptProcess(ObjectId::Next(domains::kInstance));
  ProcessId b = host_.AdoptProcess(ObjectId::Next(domains::kInstance));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace dcdo::sim
