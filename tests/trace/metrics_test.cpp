// MetricsRegistry units: counters, sim-time histograms, snapshotting.
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
  c.Set(0);
  EXPECT_EQ(c.value(), 0u);
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

TEST(HistogramTest, StatsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_nanos(), 0);
  EXPECT_EQ(h.max_nanos(), 0);

  h.Record(sim::SimDuration::Millis(1));  // 1e6 ns -> bucket 19
  h.Record(sim::SimDuration::Millis(3));  // 3e6 ns -> bucket 21
  h.RecordNanos(1);                       // bucket 0
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min_nanos(), 1);
  EXPECT_EQ(h.max_nanos(), 3000000);
  EXPECT_EQ(h.sum_nanos(), 4000001);
  EXPECT_NEAR(h.mean_nanos(), 4000001.0 / 3.0, 1.0);

  std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[19], 1u);  // floor(log2(1'000'000)) == 19
  EXPECT_EQ(buckets[21], 1u);  // floor(log2(3'000'000)) == 21
}

TEST(HistogramTest, NonPositiveSamplesLandInBucketZero) {
  Histogram h;
  h.RecordNanos(0);
  h.RecordNanos(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
}

TEST(MetricsRegistryTest, GetCreatesFindDoesNot) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("rpc.timeouts"), nullptr);
  EXPECT_EQ(registry.CounterValue("rpc.timeouts"), 0u);

  Counter& c = registry.GetCounter("rpc.timeouts");
  c.Increment(7);
  EXPECT_EQ(registry.CounterValue("rpc.timeouts"), 7u);
  ASSERT_NE(registry.FindCounter("rpc.timeouts"), nullptr);
  // Same name -> same counter (stable reference).
  registry.GetCounter("rpc.timeouts").Increment();
  EXPECT_EQ(c.value(), 8u);

  EXPECT_EQ(registry.FindHistogram("rpc.latency.echo"), nullptr);
  registry.GetHistogram("rpc.latency.echo").RecordNanos(100);
  ASSERT_NE(registry.FindHistogram("rpc.latency.echo"), nullptr);
  EXPECT_EQ(registry.FindHistogram("rpc.latency.echo")->count(), 1u);
}

TEST(MetricsRegistryTest, SetCounterOverwritesAndSnapshotSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.second").Increment(2);
  registry.GetCounter("a.first").Increment(1);
  registry.SetCounter("b.second", 99);  // export-time snapshot semantics
  registry.SetCounter("c.third", 3);    // creates if absent

  auto snapshot = registry.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0], (std::pair<std::string, std::uint64_t>{"a.first", 1}));
  EXPECT_EQ(snapshot[1],
            (std::pair<std::string, std::uint64_t>{"b.second", 99}));
  EXPECT_EQ(snapshot[2], (std::pair<std::string, std::uint64_t>{"c.third", 3}));

  registry.GetHistogram("z.hist");
  auto names = registry.HistogramNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "z.hist");
}

}  // namespace
}  // namespace dcdo::trace
