// E16 — Heavy-traffic open loop: sessions and flow control under load
// (DESIGN.md §9.2, EXPERIMENTS.md E16).
//
// Closed-loop benches (E2, E11) re-issue a call only after the previous one
// answers, so they can never observe queueing: offered load self-throttles
// to the service rate. This experiment drives an *open loop* — Poisson
// arrivals fire on a fixed schedule whether or not earlier calls have
// returned — which is where admission control earns its keep. Each scenario
// reports the simulated makespan plus the exact nearest-rank p50/p99 of the
// per-call (reply - invoke) sim times, so the latency distribution, not just
// the mean, lands in BENCH_dcdo.json.
//
// Scenarios:
//   OpenLoopSessions  — session_slots=4: client-side slot admission queues
//                       the overflow (rpc.backpressure) instead of landing it
//                       on the server; p99 trades against bounded in-flight.
//   SlowServer        — service time exceeds invocation_timeout: every call's
//                       retry lands while the body is parked; exactly-once
//                       must hold (the bench aborts if any body re-runs).
//   Incast            — 12 clients converge on one endpoint at t ~= 0;
//                       sessions cap concurrent server work at clients*slots.
//   RetryStorm        — bodies run, then the link partitions before replies
//                       escape; the heal-time retry is answered from session
//                       slots without re-execution.
//
// All numbers are SimTime_*: deterministic simulated seconds (manual-time
// mode), bit-stable on a given host. Arrival schedules derive from Mix64
// integer hashing, not library RNG state, so the schedule is identical
// across standard-library versions too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "rpc/client.h"

namespace dcdo::bench {
namespace {

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform (0, 1] from an integer hash, so arrival schedules are
// reproducible bit for bit.
double UnitUniform(std::uint64_t seed) {
  return (static_cast<double>(Mix64(seed) >> 11) + 1.0) / 9007199254740993.0;
}

// Poisson process: exponential inter-arrival gaps via inverse transform.
// Stream `stream` decorrelates the per-client schedules.
std::vector<sim::SimDuration> PoissonArrivals(int count, double mean_gap_us,
                                              std::uint64_t stream) {
  std::vector<sim::SimDuration> out;
  out.reserve(static_cast<std::size_t>(count));
  double at_us = 0.0;
  for (int i = 0; i < count; ++i) {
    at_us += -mean_gap_us *
             std::log(UnitUniform(stream * 0x10001ull + static_cast<std::uint64_t>(i)));
    out.push_back(sim::SimDuration::Micros(static_cast<std::int64_t>(at_us)));
  }
  return out;
}

// One open-loop endpoint: a raw transport handler (no object layer) so the
// scenario controls service time exactly. Bodies are counted per call tag —
// the whole PR exists to keep that count at one, so the rig aborts on any
// re-execution rather than publishing a corrupted number.
struct OpenLoopRig {
  OpenLoopRig(const Testbed::Options& options, int client_count,
              sim::SimDuration service)
      : testbed{options} {
    const ObjectAddress address{1, 90, 1};
    testbed.transport().RegisterEndpoint(
        address.node, address.pid, address.epoch,
        [this, service](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          ++executions[inv.args().ToString()];
          if (executions[inv.args().ToString()] > 1) std::abort();
          ++in_flight;
          max_in_flight = std::max(max_in_flight, in_flight);
          testbed.simulation().Schedule(
              service, [this, reply = std::move(reply)]() mutable {
                --in_flight;
                reply(rpc::MethodResult::Ok(ByteBuffer::FromString("ok")));
              });
        });
    target = ObjectId::Next(domains::kInstance);
    testbed.agent().Bind(target, address);
    clients.reserve(static_cast<std::size_t>(client_count));
    for (int c = 0; c < client_count; ++c) {
      // Server is node 1; clients start at host 2 so every call crosses the
      // simulated wire.
      clients.push_back(testbed.MakeClient(2 + static_cast<std::size_t>(c)));
    }
  }

  // Schedules one Invoke per arrival (one event per call, as a real
  // open-loop driver issues them), runs to completion, and returns
  // simulated seconds.
  double Run(const std::vector<std::vector<sim::SimDuration>>& schedule,
             std::vector<std::int64_t>& latency_ns,
             const char* method = "work") {
    std::size_t expected = 0;
    for (std::size_t c = 0; c < schedule.size(); ++c) {
      for (std::size_t i = 0; i < schedule[c].size(); ++i, ++expected) {
        testbed.simulation().Schedule(schedule[c][i], [this, &latency_ns, c,
                                                       i, method]() {
          const sim::SimTime started = testbed.simulation().Now();
          const std::string tag =
              "c" + std::to_string(c) + ".i" + std::to_string(i);
          clients[c]->Invoke(target, method, ByteBuffer::FromString(tag),
                             [this, &latency_ns,
                              started](Result<ByteBuffer> r) {
                               if (!r.ok()) std::abort();
                               latency_ns.push_back(
                                   (testbed.simulation().Now() - started)
                                       .nanos());
                               ++replies;
                             });
        });
      }
    }
    const double seconds = SimSeconds(testbed, [&] { testbed.RunAll(); });
    if (replies != expected) std::abort();
    return seconds;
  }

  std::uint64_t BackpressureWaits() const {
    std::uint64_t total = 0;
    for (const auto& client : clients) total += client->backpressure_waits();
    return total;
  }

  Testbed testbed;
  ObjectId target;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  std::map<std::string, int> executions;
  std::size_t replies = 0;
  int in_flight = 0;
  int max_in_flight = 0;
};

// Reports the exact nearest-rank p50/p99 of the recorded latencies: the
// smallest sample with at least p% of all samples at or below it.
void ReportLatency(benchmark::State& state,
                   std::vector<std::int64_t> latency_ns) {
  std::sort(latency_ns.begin(), latency_ns.end());
  const auto percentile_ms = [&latency_ns](std::size_t percent) {
    if (latency_ns.empty()) return 0.0;
    const std::size_t rank =
        std::max<std::size_t>((percent * latency_ns.size() + 99) / 100, 1);
    return static_cast<double>(latency_ns[rank - 1]) / 1e6;
  };
  state.counters["p50_ms"] = benchmark::Counter(percentile_ms(50));
  state.counters["p99_ms"] = benchmark::Counter(percentile_ms(99));
  state.counters["calls"] =
      benchmark::Counter(static_cast<double>(latency_ns.size()));
}

// --- The saturated open loop (Sessions) ------------------------------------
// A thousand clients (each on its own simulated host), Poisson arrivals at
// ~2x each client's slot capacity: mean gap 500 us against ~2 ms of service
// + wire time, so calls queue at the client for a slot.

constexpr double kOpenLoopGapMicros = 500.0;
constexpr int kOpenLoopCalls = 8;
constexpr int kOpenLoopClients = 1000;

std::vector<std::vector<sim::SimDuration>> OpenLoopSchedule() {
  std::vector<std::vector<sim::SimDuration>> schedule;
  schedule.reserve(static_cast<std::size_t>(kOpenLoopClients));
  for (int c = 0; c < kOpenLoopClients; ++c) {
    schedule.push_back(PoissonArrivals(kOpenLoopCalls, kOpenLoopGapMicros,
                                       0xE16 + static_cast<std::uint64_t>(c)));
  }
  return schedule;
}

void RunOpenLoopScenario(benchmark::State& state, Testbed::Options options) {
  options.host_count = kOpenLoopClients + 2;
  const auto schedule = OpenLoopSchedule();
  std::vector<std::int64_t> latency_ns;
  std::uint64_t backpressure = 0;
  for (auto _ : state) {
    // Fresh rig per iteration: every iteration replays the identical
    // schedule from t=0, so the reported time is the same number repeated.
    OpenLoopRig rig(options, kOpenLoopClients, sim::SimDuration::Millis(2));
    state.SetIterationTime(rig.Run(schedule, latency_ns));
    backpressure = rig.BackpressureWaits();
  }
  ReportLatency(state, std::move(latency_ns));
  state.counters["backpressure"] =
      benchmark::Counter(static_cast<double>(backpressure));
}

void SimTime_E16_OpenLoopSessions(benchmark::State& state) {
  Testbed::Options options = BenchOptions();
  options.cost_model.session_slots = 4;
  RunOpenLoopScenario(state, options);
}
BENCHMARK(SimTime_E16_OpenLoopSessions)->UseManualTime()->Iterations(4);

// --- SlowServer: service time > invocation_timeout -------------------------
// Every call's first retry fires while the body is still parked; the
// duplicate must be absorbed by the slot without a re-execution,
// and the makespan is dominated by the 12 s service, not by retry storms.
void SimTime_E16_SlowServer(benchmark::State& state) {
  Testbed::Options options = BenchOptions();
  options.cost_model.session_slots = 2;
  const int clients = 8;
  const int calls = 3;  // > slots: the third call waits for admission
  std::vector<std::vector<sim::SimDuration>> schedule;
  for (int c = 0; c < clients; ++c) {
    schedule.push_back(PoissonArrivals(calls, 1000.0,
                                       0x516 + static_cast<std::uint64_t>(c)));
  }
  std::vector<std::int64_t> latency_ns;
  std::uint64_t dedup_hits = 0;
  std::uint64_t backpressure = 0;
  for (auto _ : state) {
    OpenLoopRig rig(options, clients, sim::SimDuration::Seconds(12.0));
    state.SetIterationTime(rig.Run(schedule, latency_ns));
    dedup_hits = rig.testbed.transport().dedup_hits();
    backpressure = rig.BackpressureWaits();
  }
  ReportLatency(state, std::move(latency_ns));
  state.counters["dedup_hits"] =
      benchmark::Counter(static_cast<double>(dedup_hits));
  state.counters["backpressure"] =
      benchmark::Counter(static_cast<double>(backpressure));
}
BENCHMARK(SimTime_E16_SlowServer)->UseManualTime()->Iterations(4);

// --- Incast: everyone at once ----------------------------------------------
// 12 clients, 6 calls each, all arriving inside ~1 ms. Sessions bound the
// server's concurrent bodies at clients x slots; the counter proves it.
void SimTime_E16_Incast(benchmark::State& state) {
  Testbed::Options options = BenchOptions();
  options.cost_model.session_slots = 2;
  const int clients = 12;
  const int calls = 6;
  std::vector<std::vector<sim::SimDuration>> schedule;
  for (int c = 0; c < clients; ++c) {
    std::vector<sim::SimDuration> mine;
    for (int i = 0; i < calls; ++i) {
      // Sub-millisecond jitter only: the point is simultaneity.
      mine.push_back(sim::SimDuration::Micros(static_cast<std::int64_t>(
          Mix64(0x1C + static_cast<std::uint64_t>(c * 16 + i)) % 1000)));
    }
    std::sort(mine.begin(), mine.end());
    schedule.push_back(std::move(mine));
  }
  std::vector<std::int64_t> latency_ns;
  int max_in_flight = 0;
  std::uint64_t backpressure = 0;
  for (auto _ : state) {
    OpenLoopRig rig(options, clients, sim::SimDuration::Seconds(1.0));
    state.SetIterationTime(rig.Run(schedule, latency_ns));
    max_in_flight = rig.max_in_flight;
    backpressure = rig.BackpressureWaits();
  }
  if (max_in_flight > clients * options.cost_model.session_slots) std::abort();
  ReportLatency(state, std::move(latency_ns));
  state.counters["max_in_flight"] =
      benchmark::Counter(static_cast<double>(max_in_flight));
  state.counters["backpressure"] =
      benchmark::Counter(static_cast<double>(backpressure));
}
BENCHMARK(SimTime_E16_Incast)->UseManualTime()->Iterations(4);

// --- RetryStorm: partition eats the replies --------------------------------
// Bodies execute on attempt #1; the link drops before any reply escapes and
// stays down across most of the retry schedule. The heal-time retry must be
// answered from the cached slot reply — dedup_hits counts the duplicates
// the slots absorbed, and
// the rig aborts if a body ever re-runs.
void SimTime_E16_RetryStorm(benchmark::State& state) {
  Testbed::Options options = BenchOptions();
  options.cost_model.session_slots = 2;
  const int clients = 6;
  std::vector<std::vector<sim::SimDuration>> schedule;
  for (int c = 0; c < clients; ++c) {
    schedule.push_back({sim::SimDuration::Micros(static_cast<std::int64_t>(
        Mix64(0x57 + static_cast<std::uint64_t>(c)) % 200))});
  }
  std::vector<std::int64_t> latency_ns;
  std::uint64_t dedup_hits = 0;
  for (auto _ : state) {
    // Replies park 2 s; the partition closes at 0.5 s and heals at 45 s, so
    // every reply and every in-between retry is lost (same shape as the
    // tier-1 RetryStorm overload test, at bench scale).
    OpenLoopRig rig(options, clients, sim::SimDuration::Seconds(2.0));
    for (int c = 0; c < clients; ++c) {
      const sim::NodeId client_node =
          rig.testbed.host(2 + static_cast<std::size_t>(c))->node();
      rig.testbed.simulation().Schedule(
          sim::SimDuration::Seconds(0.5), [&rig, client_node]() {
            rig.testbed.network().SetPartitioned(client_node, 1, true);
          });
      rig.testbed.simulation().Schedule(
          sim::SimDuration::Seconds(45.0), [&rig, client_node]() {
            rig.testbed.network().SetPartitioned(client_node, 1, false);
          });
    }
    state.SetIterationTime(rig.Run(schedule, latency_ns, "storm"));
    dedup_hits = rig.testbed.transport().dedup_hits();
  }
  if (dedup_hits < static_cast<std::uint64_t>(clients)) std::abort();
  ReportLatency(state, std::move(latency_ns));
  state.counters["dedup_hits"] =
      benchmark::Counter(static_cast<double>(dedup_hits));
}
BENCHMARK(SimTime_E16_RetryStorm)->UseManualTime()->Iterations(4);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
