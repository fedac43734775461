// E5 — Stale-binding discovery (paper Section 4, "Cost").
//
// Paper claim reproduced here: "it takes objects approximately 25 to 35
// seconds to realize that a local binding contains a physical address that
// the object is no longer using."
//
// The scenario: a client with a warm binding calls an object that has been
// re-activated elsewhere (the monolithic evolution aftermath). The measured
// time is from the first doomed invocation to the successful reply via the
// refreshed binding. An ablation sweeps the timeout/retry schedule that the
// 25-35 s band is made of.
//
// Lease variants (EXPERIMENTS.md E14): with binding_lease_duration on, the
// agent pushes the fresh binding to every cache that leased it, so discovery
// is one network hop, and a storm of holders converges in milliseconds.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "naming/binding_cache.h"
#include "rpc/client.h"

namespace dcdo::bench {
namespace {

struct StaleScenario {
  Testbed testbed;
  ObjectId target;

  explicit StaleScenario(const sim::CostModel& cost)
      : testbed(MakeOptions(cost)) {
    target = ObjectId::Next(domains::kInstance);
    ServeAt(2, 10, 1);
  }

  static Testbed::Options MakeOptions(const sim::CostModel& cost) {
    Testbed::Options options;
    options.checking = false;
    options.cost_model = cost;
    return options;
  }

  void ServeAt(sim::NodeId node, sim::ProcessId pid, std::uint64_t epoch) {
    testbed.transport().RegisterEndpoint(
        node, pid, epoch,
        [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
    testbed.agent().Bind(target, ObjectAddress{node, pid, epoch});
  }

  void KillCurrentActivation() { testbed.transport().UnregisterEndpoint(2, 10); }
};

void SimTime_StaleBindingDiscovery(benchmark::State& state) {
  for (auto _ : state) {
    sim::CostModel cost;  // defaults = calibrated schedule
    StaleScenario scenario(cost);
    auto client = scenario.testbed.MakeClient(1);
    if (!client->InvokeBlocking(scenario.target, "warm").ok()) std::abort();

    // The object "evolves": old process dies, new activation elsewhere.
    scenario.KillCurrentActivation();
    scenario.ServeAt(3, 20, 2);

    double seconds = SimSeconds(scenario.testbed, [&] {
      if (!client->InvokeBlocking(scenario.target, "recover").ok()) {
        std::abort();
      }
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel("default schedule (10 s timeout x 3 + rebind)");
}
BENCHMARK(SimTime_StaleBindingDiscovery)->UseManualTime()->Iterations(3);

// Ablation: the discovery time is timeout * (1 + retries) + rebind — the
// paper's 25-35 s band is a direct consequence of Legion's schedule.
void SimTime_StaleBindingSchedule(benchmark::State& state) {
  for (auto _ : state) {
    sim::CostModel cost;
    cost.invocation_timeout =
        sim::SimDuration::Seconds(static_cast<double>(state.range(0)));
    cost.stale_retry_count = static_cast<int>(state.range(1));
    StaleScenario scenario(cost);
    auto client = scenario.testbed.MakeClient(1);
    if (!client->InvokeBlocking(scenario.target, "warm").ok()) std::abort();
    scenario.KillCurrentActivation();
    scenario.ServeAt(3, 20, 2);
    double seconds = SimSeconds(scenario.testbed, [&] {
      if (!client->InvokeBlocking(scenario.target, "recover").ok()) {
        std::abort();
      }
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(state.range(0)) + " s timeout, " +
                 std::to_string(state.range(1)) + " retries");
}
BENCHMARK(SimTime_StaleBindingSchedule)
    ->UseManualTime()
    ->Iterations(2)
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({10, 1})
    ->Args({10, 2})   // default: lands in the paper's band
    ->Args({15, 2});

// Contrast: a healthy warm-binding call for scale.
void SimTime_WarmBindingCall(benchmark::State& state) {
  sim::CostModel cost;
  StaleScenario scenario(cost);
  auto client = scenario.testbed.MakeClient(1);
  if (!client->InvokeBlocking(scenario.target, "warm").ok()) std::abort();
  for (auto _ : state) {
    double seconds = SimSeconds(scenario.testbed, [&] {
      if (!client->InvokeBlocking(scenario.target, "again").ok()) std::abort();
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel("healthy binding");
}
BENCHMARK(SimTime_WarmBindingCall)->UseManualTime()->Iterations(16);

constexpr sim::SimDuration kLease = sim::SimDuration::Seconds(60.0);

// Discovery under leases: the time from the rebind to the push replacing the
// warm client's cached binding.
void SimTime_StaleBindingLeasePush(benchmark::State& state) {
  for (auto _ : state) {
    sim::CostModel cost;
    cost.binding_lease_duration = kLease;
    StaleScenario scenario(cost);
    auto client = scenario.testbed.MakeClient(1);
    if (!client->InvokeBlocking(scenario.target, "warm").ok()) std::abort();
    scenario.KillCurrentActivation();
    const ObjectAddress fresh{3, 20, 2};
    double seconds = SimSeconds(scenario.testbed, [&] {
      scenario.ServeAt(fresh.node, fresh.pid, fresh.epoch);
      scenario.testbed.simulation().RunWhile([&] {
        return client->cache().CachedAddress(scenario.target) != fresh;
      });
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel("lease push");
}
BENCHMARK(SimTime_StaleBindingLeasePush)->UseManualTime()->Iterations(1);

// Rebind storm: `holders` caches lease one binding; a single migration
// pushes the fresh binding to all of them. Iteration time is migration ->
// last delivery.
void SimTime_StaleBindingRebindStorm(benchmark::State& state) {
  const int holders = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Testbed::Options options = BenchOptions();
    options.host_count = 24;
    options.cost_model.binding_lease_duration = kLease;
    Testbed testbed(options);
    BindingAgent& agent = testbed.agent();
    ObjectId target = ObjectId::Next(domains::kInstance);
    agent.Bind(target, ObjectAddress{2, 7, 1});
    std::vector<std::unique_ptr<BindingCache>> caches;
    caches.reserve(static_cast<std::size_t>(holders));
    for (int i = 0; i < holders; ++i) {
      caches.push_back(std::make_unique<BindingCache>(
          &agent, static_cast<sim::NodeId>(1 + i % options.host_count)));
      if (!caches.back()->Resolve(target).ok()) std::abort();
    }
    const ObjectAddress fresh{3, 8, 2};
    double seconds = SimSeconds(testbed, [&] {
      agent.Bind(target, fresh);
      testbed.RunAll();
    });
    for (const auto& cache : caches) {
      if (cache->CachedAddress(target) != fresh) std::abort();
    }
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(holders) + " leaseholders");
}
BENCHMARK(SimTime_StaleBindingRebindStorm)
    ->UseManualTime()
    ->Iterations(1)
    ->Arg(50)
    ->Arg(500);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
