// The BindingCache map: population and hit accounting, refresh in place,
// failed refresh, and invalidate-all. The cache has no bound, so every
// binding a client resolves stays until it is invalidated. (The fixture and
// case names date from the LRU-bounded cache.)
#include "naming/binding_cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "naming/binding_agent.h"

namespace dcdo {
namespace {

class BindingCacheLruTest : public ::testing::Test {
 protected:
  // Binds `count` fresh objects at distinct addresses and returns their ids.
  std::vector<ObjectId> BindFresh(std::size_t count) {
    std::vector<ObjectId> ids;
    for (std::size_t i = 0; i < count; ++i) {
      ObjectId id = ObjectId::Next(domains::kInstance);
      agent_.Bind(id, ObjectAddress{static_cast<sim::NodeId>(i + 1), 1, 1});
      ids.push_back(id);
    }
    return ids;
  }

  BindingAgent agent_;
};

TEST_F(BindingCacheLruTest, ResolvePopulatesAndHits) {
  BindingCache cache(&agent_);
  std::vector<ObjectId> ids = BindFresh(1);
  ASSERT_TRUE(cache.Resolve(ids[0]).ok());  // miss: agent lookup + store
  ASSERT_TRUE(cache.Resolve(ids[0]).ok());  // hit
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(agent_.lookups_served(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(BindingCacheLruTest, CapacityZeroIsUnbounded) {
  BindingCache cache(&agent_);
  std::vector<ObjectId> ids = BindFresh(64);
  for (const ObjectId& id : ids) ASSERT_TRUE(cache.Resolve(id).ok());
  EXPECT_EQ(cache.size(), 64u);
  for (const ObjectId& id : ids) EXPECT_TRUE(cache.Cached(id));
}

TEST_F(BindingCacheLruTest, RefreshReplacesWithoutGrowth) {
  BindingCache cache(&agent_);
  std::vector<ObjectId> ids = BindFresh(2);
  ASSERT_TRUE(cache.Resolve(ids[0]).ok());
  ASSERT_TRUE(cache.Resolve(ids[1]).ok());
  agent_.Bind(ids[0], ObjectAddress{9, 9, 2});  // object moved
  auto fresh = cache.RefreshFromAgent(ids[0]);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->node, 9u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.refreshes(), 1u);
  EXPECT_EQ(cache.Resolve(ids[0])->node, 9u);
}

TEST_F(BindingCacheLruTest, FailedRefreshLeavesNoStaleEntry) {
  BindingCache cache(&agent_);
  std::vector<ObjectId> ids = BindFresh(1);
  ASSERT_TRUE(cache.Resolve(ids[0]).ok());
  agent_.Unbind(ids[0]);
  EXPECT_FALSE(cache.RefreshFromAgent(ids[0]).ok());
  EXPECT_FALSE(cache.Cached(ids[0]));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(BindingCacheLruTest, InvalidateAllEmptiesBothStructures) {
  BindingCache cache(&agent_);
  std::vector<ObjectId> ids = BindFresh(3);
  for (const ObjectId& id : ids) ASSERT_TRUE(cache.Resolve(id).ok());
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  for (const ObjectId& id : ids) EXPECT_FALSE(cache.Cached(id));
  // Refilling goes back to the agent and keeps every entry.
  std::vector<ObjectId> more = BindFresh(5);
  for (const ObjectId& id : more) ASSERT_TRUE(cache.Resolve(id).ok());
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.misses(), 8u);
}

}  // namespace
}  // namespace dcdo
