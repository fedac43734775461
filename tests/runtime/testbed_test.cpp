#include "runtime/testbed.h"

#include <gtest/gtest.h>

namespace dcdo {
namespace {

TEST(TestbedTest, DefaultMatchesCenturionSubset) {
  Testbed testbed;
  EXPECT_EQ(testbed.host_count(), 16u);
  for (std::size_t i = 0; i < testbed.host_count(); ++i) {
    EXPECT_EQ(testbed.host(i)->architecture(),
              sim::Architecture::kX86Linux);
    EXPECT_TRUE(testbed.host(i)->up());
  }
  // Node ids are 1-based and unique.
  EXPECT_EQ(testbed.host(0)->node(), 1u);
  EXPECT_EQ(testbed.host(15)->node(), 16u);
}

TEST(TestbedTest, OptionsControlSizeAndHeterogeneity) {
  Testbed::Options options;
  options.host_count = 5;
  options.heterogeneous = true;
  Testbed testbed(options);
  EXPECT_EQ(testbed.host_count(), 5u);
  EXPECT_NE(testbed.host(0)->architecture(), testbed.host(1)->architecture());
}

TEST(TestbedTest, CostModelOptionPropagates) {
  Testbed::Options options;
  options.cost_model.invocation_timeout = sim::SimDuration::Seconds(3);
  Testbed testbed(options);
  EXPECT_EQ(testbed.cost_model().invocation_timeout.ToSeconds(), 3.0);
}

TEST(TestbedTest, ClientsShareTheAgentButNotCaches) {
  Testbed testbed;
  ObjectId id = ObjectId::Next(domains::kInstance);
  testbed.agent().Bind(id, ObjectAddress{2, 7, 1});
  auto client_a = testbed.MakeClient(0);
  auto client_b = testbed.MakeClient(1);
  ASSERT_TRUE(client_a->cache().Resolve(id).ok());
  EXPECT_TRUE(client_a->cache().Cached(id));
  EXPECT_FALSE(client_b->cache().Cached(id)) << "caches are per-client";
}

TEST(TestbedTest, RunAllDrainsTheSimulation) {
  Testbed testbed;
  int fired = 0;
  testbed.simulation().Schedule(sim::SimDuration::Seconds(1), [&] { ++fired; });
  testbed.simulation().Schedule(sim::SimDuration::Seconds(2), [&] { ++fired; });
  testbed.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(testbed.simulation().Idle());
}

// A cost model ValidateCostModel rejects must never reach the simulation:
// with zero session slots every Invoke would park forever while the run
// goes idle at t = 0.
TEST(TestbedDeathTest, RejectsInvalidCostModel) {
  Testbed::Options options;
  options.cost_model.session_slots = 0;
  EXPECT_DEATH({ Testbed testbed(options); },
               "cost model rejected: session slots must be at least 1");
}

TEST(TestbedTest, NameServiceIsWired) {
  Testbed testbed;
  ObjectId id = ObjectId::Next(domains::kComponent);
  ASSERT_TRUE(testbed.names().Bind("/scratch/x", id).ok());
  EXPECT_EQ(testbed.names().Lookup("/scratch/x").value_or(ObjectId()), id);
}

}  // namespace
}  // namespace dcdo
