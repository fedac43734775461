// E13 — Parallel component acquisition (fetch-concurrency sweep).
//
// The paper's ~10 s DCDO creation (500 fns / 50 components) is the cost of
// 50 strictly sequential ICO fetch sessions. This bench sweeps
// CostModel::fetch_concurrency over {1, 4, 8, 16} on the two workloads the
// pipeline accelerates:
//
//   * SimTime_E13_CreateDcdo — cold-cache creation of the paper's
//     configuration. Concurrency 1 must reproduce the sequential figure
//     exactly (one stream at a time, and a solo stream charges
//     ComponentDownloadTime); higher values overlap the per-component
//     session overhead and fair-share the wire, so the speedup saturates
//     near
//       total_seq / max(overhead, sum(stream)) — setup-overhead-bounded,
//     not 50x.
//   * SimTime_E13_CoordinatedEvolution — a coordinator batch over several
//     types, where PrefetchInstanceVersion overlaps every step's downloads
//     ahead of the strictly ordered apply phase.
//
// Every entry is deterministic and under the zero-drift SimTime_* gate.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/coordinator.h"

namespace dcdo::bench {
namespace {

Testbed::Options ParallelOptions(int fetch_concurrency) {
  Testbed::Options options = BenchOptions();
  options.cost_model.fetch_concurrency = fetch_concurrency;
  return options;
}

void SimTime_E13_CreateDcdo(benchmark::State& state) {
  std::size_t functions = static_cast<std::size_t>(state.range(0));
  std::size_t components = static_cast<std::size_t>(state.range(1));
  int concurrency = static_cast<int>(state.range(2));
  for (auto _ : state) {
    Testbed testbed{ParallelOptions(concurrency)};  // cold caches
    auto grid = MakeFunctionGrid(testbed, "grid", functions, components);
    auto manager = MakeManagerWithVersion(testbed, "bench", grid,
                                          MakeSingleVersionExplicit());
    double seconds = SimSeconds(testbed, [&] {
      (void)CreateInstanceBlocking(testbed, *manager, testbed.host(1));
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(functions) + " fns / " +
                 std::to_string(components) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E13_CreateDcdo)
    ->UseManualTime()
    ->Iterations(3)
    ->Args({500, 50, 1})   // must equal SimTime_CreateDcdo/500/50/0
    ->Args({500, 50, 4})
    ->Args({500, 50, 8})
    ->Args({500, 50, 16});

// A coordinator batch over `types` object types, each evolving one instance
// from a 10-component v1 to a v2 that adds 10 more components. The
// coordinator prefetches every step's additions before the serial apply
// phase, so the batch's downloads overlap. The concurrency bound is per
// manager's fetcher, so even at 1 each type keeps one stream open.
void SimTime_E13_CoordinatedEvolution(benchmark::State& state) {
  std::size_t types = static_cast<std::size_t>(state.range(0));
  int concurrency = static_cast<int>(state.range(1));
  constexpr std::size_t kBaseComponents = 10;
  constexpr std::size_t kAddedComponents = 10;
  constexpr std::size_t kFunctions = 100;
  for (auto _ : state) {
    Testbed testbed{ParallelOptions(concurrency)};
    std::vector<std::unique_ptr<DcdoManager>> managers;
    std::vector<UpdateCoordinator::Step> steps;
    for (std::size_t t = 0; t < types; ++t) {
      std::string type_name = "type" + std::to_string(t);
      auto v1_grid = MakeFunctionGrid(testbed, type_name + "v1", kFunctions,
                                      kBaseComponents);
      auto v2_grid = MakeFunctionGrid(testbed, type_name + "v2", kFunctions,
                                      kAddedComponents);
      auto manager = MakeManagerWithVersion(testbed, type_name, v1_grid,
                                            MakeMultiVersionIncreasing());
      for (const ImplementationComponent& comp : v2_grid) {
        if (!manager->PublishComponent(comp).ok()) std::abort();
      }
      VersionId v1 = manager->current_version();
      VersionId v2 = *manager->DeriveVersion(v1);
      DfmDescriptor* d2 = *manager->MutableDescriptor(v2);
      for (const ImplementationComponent& comp : v2_grid) {
        if (!d2->IncorporateComponent(comp).ok()) std::abort();
        for (const FunctionImplDescriptor& fn : comp.functions) {
          if (!d2->EnableFunction(fn.function.name, comp.id).ok()) {
            std::abort();
          }
        }
      }
      if (!manager->MarkInstantiable(v2).ok()) std::abort();
      // All instances co-hosted: the batch's fetch streams contend for one
      // NIC, which is exactly what the fair-share model must price in.
      ObjectId instance =
          CreateInstanceBlocking(testbed, *manager, testbed.host(1));
      steps.push_back({manager.get(), instance, v2});
      managers.push_back(std::move(manager));
    }
    UpdateCoordinator coordinator;
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      coordinator.Execute(std::move(steps),
                          [&](UpdateCoordinator::Outcome outcome) {
                            if (!outcome.ok()) std::abort();
                            done = true;
                          });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(types) + " types x +" +
                 std::to_string(kAddedComponents) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E13_CoordinatedEvolution)
    ->UseManualTime()
    ->Iterations(3)
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Args({4, 16});

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
