// E17 — FOM runtime: heap allocations and wall time per operation.
//
// The Fom conversion (DESIGN.md §16) changes *control flow*, not simulated
// cost: every SimTime_* entry must equal the E3/E13 entry it mirrors (see
// below). The win is measured here, in two host-side units:
//
//   * allocations — this binary replaces global operator new/delete with
//     counting forwarders, and each workload reports the number of heap
//     allocations performed inside the measured operation as the `allocs`
//     counter (and `alloc_bytes` for the cumulative request size). The
//     legacy chains paid one shared_ptr control block plus a std::function
//     spill per continuation step; a Fom carries its whole state in one
//     pooled block, so E17 must show ≥30% fewer allocations on the
//     500-function creation and 4-type coordinated-evolution workloads.
//   * wall time — Wall_E17_* run the E13-style fetch/evolution churn in
//     inline (single-CPU) mode and report host time. Less allocator traffic
//     and fewer event-queue round trips is a real-time win even when the
//     simulated clock is unchanged.
//
// The footprint rows (SimTime_E17_InstanceFootprint,
// SimTime_E17_DeriveVersionFootprint, SimTime_E17_DefineTypeFootprint) use
// the same allocator to report the live heap bytes an operation leaves
// behind (`live_bytes`, tracked with malloc_usable_size): one instance of a
// 500-fn / 50-component type created after 0, 4 or 16 earlier types of the
// same shape, one DeriveVersion of that type, and the whole definition of a
// type shaped like the benchmark's evolve_under_calls types. Per-instance
// bytes must not grow with the number of earlier types (whose names share
// the process-global intern table).
//
// SimTime_E17_CreateDcdo/500/50/1 must equal SimTime_CreateDcdo/500/50/0 and
// SimTime_E13_CreateDcdo/500/50/1; SimTime_E17_CoordinatedEvolution/4/1 must
// equal SimTime_E13_CoordinatedEvolution/4/1. The alloc counters ride along
// in BENCH_dcdo.json so regressions in allocator discipline show up in
// review even though bench.sh --compare only gates on time.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include "bench_util.h"
#include "core/coordinator.h"

// ===== Global allocation counting =====
//
// Counting forwarders around malloc/free. Relaxed atomics: the inline-mode
// workloads are single-threaded, the counters only need to not tear.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* Counted(void* p, std::size_t size) {
  if (p != nullptr) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* CountedAlloc(std::size_t size) {
  return Counted(std::malloc(size == 0 ? 1 : size), size);
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return Counted(
      std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded), size);
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

struct AllocSnapshot {
  std::uint64_t count;
  std::uint64_t bytes;
  std::int64_t live;
};

AllocSnapshot TakeAllocSnapshot() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed)};
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace dcdo::bench {
namespace {

Testbed::Options FomOptions(int fetch_concurrency) {
  Testbed::Options options = BenchOptions();
  options.cost_model.fetch_concurrency = fetch_concurrency;
  return options;
}

void ReportAllocs(benchmark::State& state, const AllocSnapshot& before,
                  const AllocSnapshot& after) {
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(after.count - before.count), benchmark::Counter::kAvgIterations);
  state.counters["alloc_bytes"] = benchmark::Counter(
      static_cast<double>(after.bytes - before.bytes), benchmark::Counter::kAvgIterations);
}

// The allocation counters plus the live heap bytes the measured operations
// left behind, per operation (`per` of them ran in the iteration).
void ReportFootprint(benchmark::State& state, const AllocSnapshot& before,
                     const AllocSnapshot& after, double per) {
  auto per_op = [&](double value) {
    return benchmark::Counter(value / per, benchmark::Counter::kAvgIterations);
  };
  state.counters["allocs"] =
      per_op(static_cast<double>(after.count - before.count));
  state.counters["alloc_bytes"] =
      per_op(static_cast<double>(after.bytes - before.bytes));
  state.counters["live_bytes"] =
      per_op(static_cast<double>(after.live - before.live));
}

// The paper's 500-fn / 50-component cold-cache creation (E13 workload) with
// the allocation meter around the CreateInstance drive.
void SimTime_E17_CreateDcdo(benchmark::State& state) {
  std::size_t functions = static_cast<std::size_t>(state.range(0));
  std::size_t components = static_cast<std::size_t>(state.range(1));
  int concurrency = static_cast<int>(state.range(2));
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};  // cold caches
    auto grid = MakeFunctionGrid(testbed, "grid", functions, components);
    auto manager = MakeManagerWithVersion(testbed, "bench", grid,
                                          MakeSingleVersionExplicit());
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      (void)CreateInstanceBlocking(testbed, *manager, testbed.host(1));
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportAllocs(state, before, after);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(functions) + " fns / " +
                 std::to_string(components) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E17_CreateDcdo)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({500, 50, 1});

// One instance of a 500-fn / 50-component type, created after `earlier`
// types of the same shape each created an instance (interning their names)
// on another host. Every type gets names never interned before in the
// process, as distinct types would. A first instance of the measured type,
// on a third host, interns its names outside the measured window, so the
// window holds what each further instance costs; the measured host's cache
// is still cold, so its simulated time equals SimTime_E17_CreateDcdo.
void SimTime_E17_InstanceFootprint(benchmark::State& state) {
  std::size_t functions = static_cast<std::size_t>(state.range(0));
  std::size_t components = static_cast<std::size_t>(state.range(1));
  auto earlier = static_cast<std::size_t>(state.range(2));
  static int types_made = 0;
  auto make_type = [&](Testbed& testbed) {
    std::string type_name = "fp" + std::to_string(types_made++);
    return MakeManagerWithVersion(
        testbed, type_name,
        MakeFunctionGrid(testbed, type_name, functions, components),
        MakeSingleVersionExplicit());
  };
  for (auto _ : state) {
    Testbed testbed{FomOptions(1)};
    std::vector<std::unique_ptr<DcdoManager>> others;
    for (std::size_t t = 0; t < earlier; ++t) {
      others.push_back(make_type(testbed));
      (void)CreateInstanceBlocking(testbed, *others.back(), testbed.host(2));
    }
    auto manager = make_type(testbed);
    (void)CreateInstanceBlocking(testbed, *manager, testbed.host(3));
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      (void)CreateInstanceBlocking(testbed, *manager, testbed.host(1));
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportFootprint(state, before, after, 1.0);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(functions) + " fns / " +
                 std::to_string(components) + " comps after " +
                 std::to_string(earlier) + " earlier types");
}
BENCHMARK(SimTime_E17_InstanceFootprint)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({500, 50, 0})
    ->Args({500, 50, 4})
    ->Args({500, 50, 16});

// DeriveVersion of the same 500-fn / 50-component type: the paper's
// "logically copying an existing instantiable one". Eight derived versions
// stay alive in the manager; counters are per derive. No simulated time
// passes.
void SimTime_E17_DeriveVersionFootprint(benchmark::State& state) {
  std::size_t functions = static_cast<std::size_t>(state.range(0));
  std::size_t components = static_cast<std::size_t>(state.range(1));
  constexpr int kDerived = 8;
  for (auto _ : state) {
    Testbed testbed{FomOptions(1)};
    auto grid = MakeFunctionGrid(testbed, "grid", functions, components);
    auto manager = MakeManagerWithVersion(testbed, "bench", grid,
                                          MakeSingleVersionExplicit());
    const VersionId base = manager->current_version();
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      for (int d = 0; d < kDerived; ++d) {
        if (!manager->DeriveVersion(base).ok()) std::abort();
      }
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportFootprint(state, before, after, kDerived);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(functions) + " fns / " +
                 std::to_string(components) + " comps, per derive");
}
BENCHMARK(SimTime_E17_DeriveVersionFootprint)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({500, 50});

// Defining a type at the scale of the benchmark's evolve_under_calls
// workload: 50 components of 10 functions built (their bodies registered),
// published, incorporated and enabled into the root version, then 32
// derived versions that each add one published component of 5 functions
// (that workload's extras carry 2 to 8). Counters are per type; no
// simulated time passes.
void SimTime_E17_DefineTypeFootprint(benchmark::State& state) {
  constexpr std::size_t kComponents = 50;
  constexpr std::size_t kFunctions = 10;
  constexpr int kDerived = 32;
  constexpr std::size_t kAddedFunctions = 5;
  for (auto _ : state) {
    Testbed testbed{FomOptions(1)};
    std::unique_ptr<DcdoManager> manager;
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      manager = MakeManagerWithVersion(
          testbed, "deftype",
          MakeFunctionGrid(testbed, "deftype", kComponents * kFunctions,
                           kComponents),
          MakeMultiVersionHybrid());
      const VersionId base = manager->current_version();
      for (int d = 0; d < kDerived; ++d) {
        const ImplementationComponent added =
            MakeFunctionGrid(testbed, "deftype-x" + std::to_string(d),
                             kAddedFunctions, 1)
                .front();
        if (!manager->PublishComponent(added).ok()) std::abort();
        const VersionId child = *manager->DeriveVersion(base);
        DfmDescriptor* descriptor = *manager->MutableDescriptor(child);
        if (!descriptor->IncorporateComponent(added).ok()) std::abort();
        for (const FunctionImplDescriptor& fn : added.functions) {
          if (!descriptor->EnableFunction(fn.function.name, added.id).ok()) {
            std::abort();
          }
        }
        if (!manager->MarkInstantiable(child).ok()) std::abort();
      }
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportFootprint(state, before, after, 1.0);
    state.SetIterationTime(seconds);
  }
  state.SetLabel("50 comps x 10 fns + 32 derived x 5 fns, per type");
}
BENCHMARK(SimTime_E17_DefineTypeFootprint)->UseManualTime()->Iterations(1);

// The 4-type coordinated evolution batch (E13 workload): prefetch + four
// strictly ordered EvolveInstanceTo applies through UpdateCoordinator.
void SimTime_E17_CoordinatedEvolution(benchmark::State& state) {
  std::size_t types = static_cast<std::size_t>(state.range(0));
  int concurrency = static_cast<int>(state.range(1));
  constexpr std::size_t kBaseComponents = 10;
  constexpr std::size_t kAddedComponents = 10;
  constexpr std::size_t kFunctions = 100;
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};
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
      ObjectId instance =
          CreateInstanceBlocking(testbed, *manager, testbed.host(1));
      steps.push_back({manager.get(), instance, v2});
      managers.push_back(std::move(manager));
    }
    UpdateCoordinator coordinator;
    AllocSnapshot before = TakeAllocSnapshot();
    double seconds = SimSeconds(testbed, [&] {
      bool done = false;
      coordinator.Execute(std::move(steps),
                          [&](UpdateCoordinator::Outcome outcome) {
                            if (!outcome.ok()) std::abort();
                            done = true;
                          });
      testbed.simulation().RunWhile([&] { return !done; });
    });
    AllocSnapshot after = TakeAllocSnapshot();
    ReportAllocs(state, before, after);
    state.SetIterationTime(seconds);
  }
  state.SetLabel(std::to_string(types) + " types x +" +
                 std::to_string(kAddedComponents) + " comps, concurrency " +
                 std::to_string(concurrency));
}
BENCHMARK(SimTime_E17_CoordinatedEvolution)
    ->UseManualTime()
    ->Iterations(1)
    ->Args({4, 1});

// The E13-style churn suite in inline mode, measured in host time: four
// instances over three derived versions, rounds of random evolve / migrate.
// This is the wall-clock contract: same simulated schedule, fewer event
// round trips and allocations per round.
void Wall_E17_FetchChurnInline(benchmark::State& state) {
  int concurrency = static_cast<int>(state.range(0));
  constexpr std::size_t kRounds = 24;
  constexpr std::size_t kComponents = 6;
  constexpr std::size_t kFunctions = 36;
  std::uint64_t total_allocs = 0;
  for (auto _ : state) {
    Testbed testbed{FomOptions(concurrency)};
    auto grid =
        MakeFunctionGrid(testbed, "churn", kFunctions, kComponents, 64 * 1024);
    auto manager = MakeManagerWithVersion(testbed, "churn", grid,
                                          MakeMultiVersionIncreasing());
    VersionId v1 = manager->current_version();
    std::vector<VersionId> versions{v1};
    for (int d = 0; d < 3; ++d) {
      VersionId derived = *manager->DeriveVersion(v1);
      if (!manager->MarkInstantiable(derived).ok()) std::abort();
      versions.push_back(derived);
    }
    std::vector<ObjectId> instances;
    for (int i = 0; i < 4; ++i) {
      instances.push_back(
          CreateInstanceBlocking(testbed, *manager, testbed.host(1 + i % 2)));
    }
    std::mt19937 rng(1999);
    AllocSnapshot before = TakeAllocSnapshot();
    for (std::size_t round = 0; round < kRounds; ++round) {
      const ObjectId& instance = instances[rng() % instances.size()];
      bool done = false;
      // Policy-refused transitions (downgrades under the increasing policy)
      // still drive the full validation path; any status counts as done.
      if (rng() % 2 == 0) {
        manager->EvolveInstanceTo(instance, versions[rng() % versions.size()],
                                  [&](Status) { done = true; });
      } else {
        manager->MigrateInstance(instance, testbed.host(1 + rng() % 4),
                                 [&](Status) { done = true; });
      }
      testbed.simulation().RunWhile([&] { return !done; });
    }
    AllocSnapshot after = TakeAllocSnapshot();
    total_allocs += after.count - before.count;
  }
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(total_allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(Wall_E17_FetchChurnInline)->Arg(1)->Arg(8);

}  // namespace
}  // namespace dcdo::bench

DCDO_BENCH_MAIN();
