// E11 — Remote-invocation fast path: host-side per-call overhead.
//
// Unlike E2 (simulated roundtrip, paper-calibrated), this experiment measures
// *wall-clock* cost of driving a remote call through the engine: marshaling,
// by-id dispatch, timer arm/cancel, and the event loop itself. The loopback
// path minimizes simulated-network event count, so what remains is the
// runtime's own overhead — the thing the fast path (interned method ids,
// pooled call state, shared arg buffers, timer wheel) attacks.
//
// Wall_* numbers are host nanoseconds and machine-dependent: they are
// tracked for *relative* regressions only (scripts/bench.sh --compare).
// Wall_RemoteEventFloor reports the irreducible cost of firing the same
// number of bare simulation events, so (loopback - floor) isolates the
// RPC-layer overhead.
//
// SimTime_RemoteCallBurst is deterministic simulated time: a pipelined burst
// of calls over a real link, admitted in waves by the session slots.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "rpc/client.h"

namespace dcdo::bench {
namespace {

struct LoopbackRig {
  LoopbackRig() : testbed{BenchOptions()} {
    grid = MakeFunctionGrid(testbed, "grid", 10, 1);
    manager = MakeManagerWithVersion(testbed, "bench", grid,
                                     MakeSingleVersionExplicit());
    // Object and client share host 1: the network path is loopback, so sim
    // events are few and cheap and host-side costs dominate.
    instance = CreateInstanceBlocking(testbed, *manager, testbed.host(1));
    client = testbed.MakeClient(1);
  }

  Testbed testbed;
  std::vector<ImplementationComponent> grid;
  std::unique_ptr<DcdoManager> manager;
  ObjectId instance;
  std::unique_ptr<rpc::RpcClient> client;
};

// One blocking remote call per iteration, wall clock.
void Wall_RemoteCallLoopback(benchmark::State& state) {
  LoopbackRig rig;
  ByteBuffer args = ByteBuffer::FromString("x");
  // Warm the binding cache and the interned-id path before timing.
  if (!rig.client->InvokeBlocking(rig.instance, "grid_fn0", args).ok()) {
    std::abort();
  }
  std::uint64_t events_before = rig.testbed.simulation().events_fired();
  std::uint64_t calls = 0;
  for (auto _ : state) {
    if (!rig.client->InvokeBlocking(rig.instance, "grid_fn0", args).ok()) {
      std::abort();
    }
    ++calls;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(calls));
  state.counters["events_per_call"] = benchmark::Counter(
      static_cast<double>(rig.testbed.simulation().events_fired() -
                          events_before) /
      static_cast<double>(calls ? calls : 1));
}
BENCHMARK(Wall_RemoteCallLoopback);

// A window of async calls in flight at once: the amortized per-call cost a
// pipelined caller sees (no blocking drive per call).
void Wall_RemoteCallPipelined(benchmark::State& state) {
  constexpr int kWindow = 64;
  LoopbackRig rig;
  ByteBuffer args = ByteBuffer::FromString("x");
  if (!rig.client->InvokeBlocking(rig.instance, "grid_fn0", args).ok()) {
    std::abort();
  }
  std::uint64_t calls = 0;
  for (auto _ : state) {
    int open = kWindow;
    for (int i = 0; i < kWindow; ++i) {
      rig.client->Invoke(rig.instance, "grid_fn0", ByteBuffer(args),
                         [&open](Result<ByteBuffer> result) {
                           if (!result.ok()) std::abort();
                           --open;
                         });
    }
    rig.testbed.simulation().Run();
    if (open != 0) std::abort();
    calls += kWindow;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(calls));
}
BENCHMARK(Wall_RemoteCallPipelined);

// The sim-event floor: firing the same number of bare events a loopback call
// costs, with no RPC machinery. Subtract from Wall_RemoteCallLoopback to get
// the net RPC-layer overhead.
void Wall_RemoteEventFloor(benchmark::State& state) {
  LoopbackRig rig;
  ByteBuffer args = ByteBuffer::FromString("x");
  if (!rig.client->InvokeBlocking(rig.instance, "grid_fn0", args).ok()) {
    std::abort();
  }
  // Count the events one warm call fires.
  std::uint64_t before = rig.testbed.simulation().events_fired();
  if (!rig.client->InvokeBlocking(rig.instance, "grid_fn0", args).ok()) {
    std::abort();
  }
  const int events_per_call = static_cast<int>(
      rig.testbed.simulation().events_fired() - before);

  sim::Simulation simulation;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < events_per_call; ++i) {
      simulation.Schedule(sim::SimDuration::Micros(1), [&fired] { ++fired; });
    }
    simulation.Run();
  }
  benchmark::DoNotOptimize(fired);
  state.counters["events_per_call"] =
      benchmark::Counter(static_cast<double>(events_per_call));
}
BENCHMARK(Wall_RemoteEventFloor);

// Deterministic: a pipelined burst over a real (non-loopback) link. Reports
// simulated seconds for the burst.
void SimTime_RemoteCallBurst(benchmark::State& state) {
  constexpr int kBurst = 32;
  Testbed testbed{BenchOptions()};
  auto grid = MakeFunctionGrid(testbed, "grid", 10, 1);
  auto manager = MakeManagerWithVersion(testbed, "bench", grid,
                                        MakeSingleVersionExplicit());
  ObjectId instance = CreateInstanceBlocking(testbed, *manager,
                                             testbed.host(1));
  auto client = testbed.MakeClient(2);
  ByteBuffer args = ByteBuffer::FromString("x");
  if (!client->InvokeBlocking(instance, "grid_fn0", args).ok()) std::abort();

  for (auto _ : state) {
    double seconds = SimSeconds(testbed, [&] {
      int open = kBurst;
      for (int i = 0; i < kBurst; ++i) {
        client->Invoke(instance, "grid_fn0", ByteBuffer(args),
                       [&open](Result<ByteBuffer> result) {
                         if (!result.ok()) std::abort();
                         --open;
                       });
      }
      testbed.simulation().Run();
      if (open != 0) std::abort();
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel("burst " + std::to_string(kBurst));
}
BENCHMARK(SimTime_RemoteCallBurst)->UseManualTime()->Iterations(8);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
