// trace::Counter units: the member counter every layer keeps its counts in.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "instrument/metrics.h"

namespace dcdo::trace {
namespace {

TEST(CounterTest, IncrementDecrementValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Decrement(2);
  EXPECT_EQ(c.value(), 40u);
}

// The whole point of trace::Counter as a member type: concurrent bumps and
// reads are race-free (BindingAgent::lookups_served_ was not, before).
TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace dcdo::trace
