// The DCDO benchmark: three seeded open-loop workloads over the default build
// and the default CostModel. README.md describes the workloads, every metric
// and the layer map; run.py builds this program and turns its result line
// into the benchmark result.
//
//   dcdo_bench --workload steady_calls|evolve_under_calls|migrate_churn
//              --seed N --seconds S [--trace 0|1] [--trace-out PATH]
//              [--commit SHA] [--source-digest HEX]
//
// A run repeats one *repetition* until --seconds of host time have passed
// (at least kMinReps times): build a fresh testbed and the workload's types
// and instances (timed as set-up), run the seeded schedule to completion in
// simulated time (timed as the measured phase), then check the outputs.
// Simulated time is deterministic for a seed, so every repetition must end
// with the same hash of (op id, completion time); host times take the fastest
// repetition (Fastest, SumOfFastestSlices). With --trace 1 every second
// repetition also records host-time spans around each call the benchmark
// makes into the runtime and snapshots the runtime's public counters; those
// repetitions supply the per-layer metrics and are excluded from the
// end-to-end ones.
//
// The last line of standard output is one JSON object with every metric.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/manager.h"
#include "runtime/testbed.h"

// ===== Counting allocator (mem.* and runtime.heap_kb_per_instance) =====
//
// Counts every operator new and tracks live heap bytes via
// malloc_usable_size. Relaxed atomics: the benchmark runs on one thread.

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
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

namespace dcdo::perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 2;
// A call slower than this (simulated) misses, as in EXPERIMENTS.md E9.
constexpr std::int64_t kMissThresholdNs = 1'000'000'000;
constexpr std::size_t kMaxSpans = 50'000;
// The schedule runs in this many equal slices of simulated time (plus the
// drain), each timed on the host; see SumOfFastestSlices.
constexpr int kSlices = 16;

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// SplitMix64. Every generator in a workload owns its own stream, so what one
// client or operator draws never depends on how the runtime interleaved the
// others: the program receives the same schedule whatever its timing.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(Mix64(seed * 0x100000001b3ull ^ Mix64(stream))) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }
  // Exponential gap with the given mean (Poisson arrivals).
  sim::SimDuration Exp(double mean_s) {
    return sim::SimDuration::Seconds(-mean_s * std::log(1.0 - Unit()));
  }

 private:
  std::uint64_t state_;
};

// ===== Workload shapes =====

enum class Workload { kSteadyCalls, kEvolveUnderCalls, kMigrateChurn };

struct Params {
  // Types: one hot component whose functions clients call (plus, when
  // `hot_twin`, a second implementation of each, for switches) and
  // `cold_components` components of functions nobody calls.
  int types = 1;
  int instances_per_type = 16;
  int hot_fns = 8;
  bool hot_twin = false;
  int cold_components = 7;
  int fns_per_component = 8;
  std::size_t component_bytes = 100 * 1024;
  // Instance i of the run lives on host i % 16.
  // Clients: client c lives on host c % 16 and sends a Poisson stream.
  int clients = 32;
  double calls_per_s = 100.0;  // per client, simulated
  bool remote_only = true;
  std::size_t min_args = 16;   // call argument bytes, uniform in [min, max]
  std::size_t max_args = 512;
  double horizon_s = 75.0;  // schedule length in simulated seconds
  // evolve_under_calls
  double flips_per_s = 0.0;      // whole-run Poisson rate
  double switch_share = 0.5;     // of flips; the rest enable/disable
  int toggles = 16;              // uncalled functions flipped per type
  double evolve_gap_s = 0.0;     // per-instance mean gap between evolutions
  double cold_share = 0.25;      // of adding evolutions
  int extras = 32;               // uncalled components per type
  // migrate_churn
  double migrations_per_s = 0.0;
  double migrate_cooldown_s = 0.0;
  std::size_t min_state = 0;     // per-instance state bytes, uniform
  std::size_t max_state = 0;
};

Params ParamsFor(Workload w) {
  Params p;
  switch (w) {
    case Workload::kSteadyCalls:
      // 16 endpoints x ~200 calls/s: each legacy dedup window fills to its
      // 8192-entry cap (~41 s) before the TTL (~61 s) retires anything.
      break;
    case Workload::kEvolveUnderCalls:
      // Paper scale: 10 hot + 48 x 10 cold = 490 functions in 50 components.
      p.types = 3;
      p.instances_per_type = 4;
      p.hot_fns = 10;
      p.hot_twin = true;
      p.cold_components = 48;
      p.fns_per_component = 10;
      p.clients = 16;
      p.calls_per_s = 25.0;
      p.horizon_s = 40.0;
      p.flips_per_s = 20.0;
      p.evolve_gap_s = 0.35;
      break;
    case Workload::kMigrateChurn:
      p.types = 1;
      p.instances_per_type = 64;
      p.hot_fns = 4;
      p.cold_components = 1;
      p.fns_per_component = 4;
      p.component_bytes = 40 * 1024;
      p.clients = 32;
      p.calls_per_s = 10.0;
      p.remote_only = false;
      p.horizon_s = 300.0;
      p.migrations_per_s = 0.1;
      // Longer than the ~31 s stale-binding discovery plus a migration, so
      // a stale client always rebinds to a settled address: no call fails.
      p.migrate_cooldown_s = 100.0;
      p.min_state = 4 * 1024;
      p.max_state = 256 * 1024;
      break;
  }
  return p;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSteadyCalls: return "steady_calls";
    case Workload::kEvolveUnderCalls: return "evolve_under_calls";
    case Workload::kMigrateChurn: return "migrate_churn";
  }
  return "?";
}

// ===== Benchmark-side spans (traced repetitions only) =====

struct SpanRecord {
  const char* name;
  std::uint32_t parent;  // index + 1 into the span list; 0 = root
  std::uint64_t op;
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  // On: spans time their calls. Recording: spans are also kept for the
  // trace file (the first traced repetition only, to bound memory).
  bool on() const { return on_; }
  void set_on(bool on, bool recording) {
    on_ = on;
    recording_ = on && recording;
  }

  // Opens a span nested in the innermost open one; 0 when not recording or
  // full.
  std::uint32_t Begin(const char* name, std::uint64_t op = 0) {
    if (!recording_) return 0;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(
        {name, stack_.empty() ? 0 : stack_.back(), op, HostNs(), -1});
    auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }
  void End(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = HostNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool on_ = false;
  bool recording_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t dropped_ = 0;
};

// RAII span; also appends its host duration to `*samples` when given.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t op = 0,
       std::vector<std::int64_t>* samples = nullptr)
      : tracer_(tracer), samples_(samples) {
    if (tracer_.on()) {
      begin_ = HostNs();
      id_ = tracer_.Begin(name, op);
    }
  }
  ~Span() { End(); }
  // Closes the span early; later calls are no-ops.
  void End() {
    if (!tracer_.on() || ended_) return;
    ended_ = true;
    tracer_.End(id_);
    if (samples_ != nullptr) samples_->push_back(HostNs() - begin_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::vector<std::int64_t>* samples_;
  std::uint32_t id_ = 0;
  std::int64_t begin_ = 0;
  bool ended_ = false;
};

// ===== Optional runtime counters =====
// Read through `requires` so the benchmark keeps compiling when a later
// change removes the mechanism behind a counter; a removed counter reads 0.

template <typename T>
std::uint64_t DedupHits(const T& transport) {
  if constexpr (requires { transport.dedup_hits(); }) {
    return transport.dedup_hits();
  } else {
    return 0;
  }
}

template <typename T>
std::uint64_t DedupCapacityEvictions(const T& transport) {
  if constexpr (requires { transport.dedup_capacity_evictions(); }) {
    return transport.dedup_capacity_evictions();
  } else {
    return 0;
  }
}

template <typename T>
bool RunsParallel(T& simulation) {
  if constexpr (requires { simulation.parallel(); }) {
    return simulation.parallel();
  } else {
    return false;
  }
}

// ===== Statistics =====

// Nearest-rank percentile over a copy; 0 when empty.
double Percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                   v.end());
  return static_cast<double>(v[index]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// The fastest of `times`. Interference from other tenants of a shared
// machine only ever adds time, and on virtual machines it is bimodal (a CPU
// runs ~1.6x slower for seconds while its physical core is shared), so a
// median flips between the modes from run to run; the minimum does not.
double Fastest(const std::vector<double>& times) {
  return times.empty() ? 0.0 : *std::min_element(times.begin(), times.end());
}

// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// Host time of the schedule as the sum, over its slices, of each slice's
// fastest repetition. Every repetition runs the same simulated work slice by
// slice, so a slice's fastest repetition is its cost without interference;
// slices are short enough (tens to hundreds of ms) that each finds a quiet
// moment on some repetition even when whole repetitions rarely do.
double SumOfFastestSlices(const std::vector<std::vector<double>>& reps) {
  double total = 0.0;
  for (std::size_t k = 0; !reps.empty() && k < reps.front().size(); ++k) {
    double best = reps.front()[k];
    for (const std::vector<double>& slices : reps) best = std::min(best, slices[k]);
    total += best;
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

// ===== One repetition =====

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;  // host seconds inside the measured Run* calls
  std::vector<double> slice_s;  // the same, per slice of the schedule
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t hash = 0;
  std::vector<std::int64_t> call_ns;  // successful calls, sim latency
  std::vector<std::int64_t> evolve_ns;
  std::vector<std::int64_t> migrate_ns;
  std::uint64_t calls = 0;
  std::uint64_t calls_missed = 0;
  std::map<std::string, Metric> layer;  // per-layer metrics
  std::vector<std::string> errors;      // failed output checks
};

struct TypeRig {
  std::unique_ptr<DcdoManager> manager;
  std::vector<std::string> hot;  // called functions
  ObjectId hot_a;                // their implementations
  ObjectId hot_b;                // nil unless Params::hot_twin
  std::vector<std::pair<std::string, ObjectId>> toggles;  // uncalled
  VersionId base;
  std::vector<VersionId> extra_versions;  // base + one uncalled component
  std::vector<ImplementationComponent> extras;
};

// A configuration op the benchmark applied to an instance, as it logged it.
struct LoggedOp {
  enum class Kind : std::uint8_t { kSwitch, kEnable, kDisable, kEvolve };
  Kind kind;
  int index;  // hot function, toggle, or extra (-1: back to base)
};

struct InstanceRig {
  ObjectId id;
  TypeRig* type = nullptr;
  std::size_t host = 0;
  bool busy = false;  // evolving or migrating
  std::vector<LoggedOp> log;
  // The replay of `log` so far: what the benchmark expects the DFM to hold.
  std::vector<char> hot_on_b;
  std::vector<char> toggle_enabled;
  int at_extra = -1;
  // Evolutions
  std::unique_ptr<Rng> evolve_rng;
  int next_fresh_extra = 0;
  int last_extra = -1;
  std::vector<std::pair<bool, int>> deferred_flips;  // (switch?, index)
  // Migrations
  bool migrated = false;
  sim::SimTime last_migrated;
};

struct CallRecord {
  std::int64_t scheduled_ns = 0;
  std::uint32_t bytes = 0;
  std::uint8_t state = 0;  // 0 pending, 1 ok, 2 failed
  std::uint8_t bodies = 0;
};

class Rig {
 public:
  Rig(Workload workload, const Params& params, std::uint64_t seed,
      Tracer& tracer)
      : workload_(workload),
        p_(params),
        seed_(seed),
        tracer_(tracer),
        testbed_(Options()) {}

  RepResult Run() {
    const std::int64_t setup_begin = HostNs();
    Setup();
    result_.setup_s = static_cast<double>(HostNs() - setup_begin) / 1e9;
    if (result_.errors.empty()) Measure();
    if (result_.errors.empty()) Check();
    return std::move(result_);
  }

 private:
  static Testbed::Options Options() {
    Testbed::Options options;  // the default CostModel
    // Instrumentation is compiled in but not installed.
    options.checking = false;
    options.tracing = false;
    return options;
  }

  sim::Simulation& sim() { return testbed_.simulation(); }

  void Fail(const std::string& what) {
    if (result_.errors.size() < 8) result_.errors.push_back(what);
  }

  void Hash(std::uint64_t op, sim::SimTime when) {
    result_.hash = Mix64(result_.hash ^ Mix64(op) ^
                         static_cast<std::uint64_t>(when.nanos()));
  }

  // ----- set-up -----

  void Setup() {
    if (RunsParallel(sim())) {
      Fail("the simulation runs the parallel executor; the benchmark "
           "measures the default single-threaded engine");
      return;
    }
    sim::SimHost* home = testbed_.host(testbed_.host_count() - 1);
    for (int t = 0; t < p_.types; ++t) BuildType(t, home);
    if (!result_.errors.empty()) return;

    const std::int64_t live_before = g_live_bytes.load();
    const std::int64_t create_begin = HostNs();
    int pending = 0;
    const int total = p_.types * p_.instances_per_type;
    instances_.resize(static_cast<std::size_t>(total));
    Span span(tracer_, "runtime.create_instances");
    for (int i = 0; i < total; ++i) {
      InstanceRig& inst = instances_[static_cast<std::size_t>(i)];
      inst.type = &types_[static_cast<std::size_t>(i / p_.instances_per_type)];
      inst.host = static_cast<std::size_t>(i) % testbed_.host_count();
      inst.hot_on_b.assign(inst.type->hot.size(), 0);
      inst.toggle_enabled.assign(inst.type->toggles.size(), 1);
      inst.evolve_rng = std::make_unique<Rng>(seed_, 0xE701 + i);
      ++pending;
      inst.type->manager->CreateInstance(
          testbed_.host(inst.host), [this, &inst, &pending](Result<ObjectId> r) {
            --pending;
            if (!r.ok()) {
              Fail("instance creation failed: " + r.status().ToString());
              return;
            }
            inst.id = *r;
          });
    }
    {
      Span run(tracer_, "sim.run");
      sim().RunWhile([&pending] { return pending > 0; });
    }
    span.End();
    if (pending != 0) Fail("instance creation never completed");
    if (!result_.errors.empty()) return;
    const double instances = static_cast<double>(total);
    result_.layer["runtime.create_host_ms_per_instance"] = {
        static_cast<double>(HostNs() - create_begin) / 1e6 / instances, "ms",
        static_cast<std::uint64_t>(total)};
    result_.layer["runtime.heap_kb_per_instance"] = {
        static_cast<double>(g_live_bytes.load() - live_before) / 1024.0 /
            instances,
        "kB", static_cast<std::uint64_t>(total)};

    Rng state_rng(seed_, 0x57A7E);
    for (InstanceRig& inst : instances_) {
      if (p_.max_state > 0) {
        Dcdo* object = inst.type->manager->FindInstance(inst.id);
        object->mutable_state().logical_size =
            p_.min_state + state_rng.Below(p_.max_state - p_.min_state + 1);
      }
    }
    for (int c = 0; c < p_.clients; ++c) {
      clients_.push_back(testbed_.MakeClient(
          static_cast<std::size_t>(c) % testbed_.host_count()));
      client_rngs_.emplace_back(seed_, 0xC11E47 + c);
    }
  }

  void RegisterBody(const std::string& symbol) {
    testbed_.registry().Register(
        symbol, ImplementationType::Portable(),
        [this](CallContext&, const ByteBuffer& args) { return Body(args); });
  }

  Result<ImplementationComponent> BuildComponent(
      const std::string& name, const std::vector<std::string>& functions,
      std::size_t bytes) {
    ComponentBuilder builder(name);
    builder.SetCodeBytes(bytes);
    for (const std::string& fn : functions) {
      RegisterBody(name + "/" + fn);
      builder.AddFunction(fn, "b(b)", name + "/" + fn);
    }
    return builder.Build();
  }

  void BuildType(int t, sim::SimHost* home) {
    const std::string prefix = "T" + std::to_string(t);
    TypeRig& type = types_.emplace_back();
    type.manager = std::make_unique<DcdoManager>(
        prefix, home, &testbed_.transport(), &testbed_.agent(),
        &testbed_.registry(), MakeMultiVersionHybrid());
    for (int i = 0; i < p_.hot_fns; ++i) {
      type.hot.push_back(prefix + "_hot" + std::to_string(i));
    }
    std::vector<ImplementationComponent> base;
    auto hot_a = BuildComponent(prefix + "-hotA", type.hot, p_.component_bytes);
    if (!hot_a.ok()) return Fail(hot_a.status().ToString());
    type.hot_a = hot_a->id;
    base.push_back(*hot_a);
    if (p_.hot_twin) {
      auto hot_b =
          BuildComponent(prefix + "-hotB", type.hot, p_.component_bytes);
      if (!hot_b.ok()) return Fail(hot_b.status().ToString());
      type.hot_b = hot_b->id;
      base.push_back(*hot_b);
    }
    for (int c = 0; c < p_.cold_components; ++c) {
      std::vector<std::string> fns;
      for (int f = 0; f < p_.fns_per_component; ++f) {
        fns.push_back(prefix + "_c" + std::to_string(c) + "_fn" +
                      std::to_string(f));
      }
      auto comp = BuildComponent(prefix + "-c" + std::to_string(c), fns,
                                 p_.component_bytes);
      if (!comp.ok()) return Fail(comp.status().ToString());
      if (c < p_.toggles && p_.flips_per_s > 0) {
        type.toggles.emplace_back(fns.front(), comp->id);
      }
      base.push_back(*comp);
    }

    DcdoManager& mgr = *type.manager;
    auto check = [this](const Status& s, const char* what) {
      if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
      return s.ok();
    };
    for (const ImplementationComponent& comp : base) {
      if (!check(mgr.PublishComponent(comp).status(), "publish")) return;
    }
    auto root = mgr.CreateRootVersion();
    if (!check(root.status(), "root version")) return;
    type.base = *root;
    DfmDescriptor* descriptor = *mgr.MutableDescriptor(type.base);
    for (const ImplementationComponent& comp : base) {
      if (!check(descriptor->IncorporateComponent(comp), "incorporate")) return;
      if (comp.id == type.hot_b) continue;  // the twin starts disabled
      for (const FunctionImplDescriptor& fn : comp.functions) {
        if (!check(descriptor->EnableFunction(fn.function.name, comp.id),
                   "enable")) {
          return;
        }
      }
    }
    if (!check(mgr.MarkInstantiable(type.base), "instantiable")) return;
    if (!check(mgr.SetCurrentVersion(type.base), "current version")) return;

    if (p_.evolve_gap_s <= 0) return;
    // Derived versions, each adding one uncalled component of seeded size.
    Rng size_rng(seed_, 0xE8A0 + static_cast<std::uint64_t>(t));
    for (int x = 0; x < p_.extras; ++x) {
      const int fn_count = 2 + static_cast<int>(size_rng.Below(7));
      std::vector<std::string> fns;
      for (int f = 0; f < fn_count; ++f) {
        fns.push_back(prefix + "_x" + std::to_string(x) + "_fn" +
                      std::to_string(f));
      }
      const std::size_t bytes = 50 * 1024 + size_rng.Below(100 * 1024);
      auto comp = BuildComponent(prefix + "-x" + std::to_string(x), fns, bytes);
      if (!comp.ok()) return Fail(comp.status().ToString());
      if (!check(mgr.PublishComponent(*comp).status(), "publish")) return;
      auto child = mgr.DeriveVersion(type.base);
      if (!check(child.status(), "derive")) return;
      DfmDescriptor* d = *mgr.MutableDescriptor(*child);
      if (!check(d->IncorporateComponent(*comp), "incorporate")) return;
      for (const std::string& fn : fns) {
        if (!check(d->EnableFunction(fn, comp->id), "enable")) return;
      }
      if (!check(mgr.MarkInstantiable(*child), "instantiable")) return;
      type.extra_versions.push_back(*child);
      type.extras.push_back(*comp);
    }
  }

  // ----- the identity body -----

  Result<ByteBuffer> Body(const ByteBuffer& args) {
    const std::int64_t begin = tracer_.on() ? HostNs() : 0;
    std::uint64_t op = 0;
    if (!args.ReadAt(0, &op, sizeof op) || op >= calls_.size()) {
      Fail("a body ran for a call the benchmark never made");
      return InvalidArgumentError("untagged call");
    }
    ++bodies_;
    if (calls_[op].bodies < 255) ++calls_[op].bodies;
    Result<ByteBuffer> echo(args);
    if (tracer_.on()) body_ns_ += HostNs() - begin;
    return echo;
  }

  // ----- the measured phase -----

  void Measure() {
    start_ = sim().Now();
    horizon_ = start_ + sim::SimDuration::Seconds(p_.horizon_s);
    next_arrival_.assign(static_cast<std::size_t>(p_.clients), start_);
    next_flip_ = start_;
    next_migration_ = start_;
    Snapshot before = Take();
    for (int c = 0; c < p_.clients; ++c) ScheduleArrival(c);
    if (p_.flips_per_s > 0) ScheduleFlip();
    if (p_.evolve_gap_s > 0) {
      for (std::size_t i = 0; i < instances_.size(); ++i) ScheduleEvolve(i);
    }
    if (p_.migrations_per_s > 0) ScheduleMigration();

    for (int k = 1; k <= kSlices + 1; ++k) {
      const std::int64_t begin = HostNs();
      {
        Span run(tracer_, "sim.run");
        if (k <= kSlices) {
          sim().RunUntil(k == kSlices ? horizon_
                                      : start_ + sim::SimDuration::Seconds(
                                                     p_.horizon_s * k / kSlices));
        } else {
          sim().RunWhile([this] { return outstanding_ > 0; });
        }
      }
      result_.slice_s.push_back(static_cast<double>(HostNs() - begin) / 1e9);
      result_.run_s += result_.slice_s.back();
    }
    if (outstanding_ != 0) Fail("the simulation went idle with ops pending");
    Snapshot after = Take();
    Report(before, after);
  }

  // Client arrivals: each client is an independent Poisson stream.
  void ScheduleArrival(int c) {
    Rng& rng = client_rngs_[static_cast<std::size_t>(c)];
    sim::SimTime at = next_arrival_[static_cast<std::size_t>(c)] +
                      rng.Exp(1.0 / p_.calls_per_s);
    next_arrival_[static_cast<std::size_t>(c)] = at;
    if (at > horizon_) return;
    sim().ScheduleAt(at, [this, c] { IssueCall(c); });
  }

  void IssueCall(int c) {
    Rng& rng = client_rngs_[static_cast<std::size_t>(c)];
    const std::size_t client_host =
        static_cast<std::size_t>(c) % testbed_.host_count();
    std::size_t target = rng.Below(instances_.size());
    while (p_.remote_only && instances_[target].host == client_host) {
      target = rng.Below(instances_.size());
    }
    const InstanceRig& inst = instances_[target];
    const std::string& fn = inst.type->hot[rng.Below(inst.type->hot.size())];
    const auto bytes = static_cast<std::uint32_t>(
        p_.min_args + rng.Below(p_.max_args - p_.min_args + 1));
    ScheduleArrival(c);

    const std::uint64_t op = calls_.size();
    calls_.push_back({sim().Now().nanos(), bytes, 0, 0});
    peak_pending_ = std::max<std::uint64_t>(peak_pending_, sim().pending_events());
    ++outstanding_;
    ++result_.attempted;
    ++result_.calls;
    Span span(tracer_, "rpc.invoke", op, &invoke_ns_);
    clients_[static_cast<std::size_t>(c)]->Invoke(
        inst.id, fn, MakeArgs(op, bytes),
        [this, op](Result<ByteBuffer> reply) { OnReply(op, std::move(reply)); });
  }

  static std::byte PadByte(std::uint64_t op, std::size_t i) {
    return static_cast<std::byte>((op * 131 + i) & 0xff);
  }

  static ByteBuffer MakeArgs(std::uint64_t op, std::size_t bytes) {
    std::vector<std::byte> data(bytes);
    std::memcpy(data.data(), &op, sizeof op);
    for (std::size_t i = sizeof op; i < bytes; ++i) data[i] = PadByte(op, i);
    return ByteBuffer(std::move(data));
  }

  void OnReply(std::uint64_t op, Result<ByteBuffer> reply) {
    CallRecord& call = calls_[op];
    --outstanding_;
    const sim::SimTime now = sim().Now();
    if (call.state != 0) {
      Fail("call " + std::to_string(op) + " completed twice");
      return;
    }
    Hash(op, now);
    if (!reply.ok()) {
      call.state = 2;
      ++result_.failed;
      ++result_.calls_missed;
      return;
    }
    call.state = 1;
    ++result_.completed;
    const std::int64_t latency = now.nanos() - call.scheduled_ns;
    result_.call_ns.push_back(latency);
    if (latency > kMissThresholdNs) ++result_.calls_missed;
    const ByteBuffer& echo = *reply;
    bool match = echo.size() == call.bytes;
    std::uint64_t tag = 0;
    match = match && echo.ReadAt(0, &tag, sizeof tag) && tag == op;
    for (std::size_t i = sizeof op; match && i < echo.size(); ++i) {
      match = echo.data()[i] == PadByte(op, i);
    }
    if (!match) Fail("reply to call " + std::to_string(op) + " does not echo it");
  }

  // ----- flips (evolve_under_calls) -----

  void ScheduleFlip() {
    next_flip_ = next_flip_ + flip_rng_.Exp(1.0 / p_.flips_per_s);
    if (next_flip_ > horizon_) return;
    sim().ScheduleAt(next_flip_, [this] { OnFlip(); });
  }

  void OnFlip() {
    InstanceRig& inst = instances_[flip_rng_.Below(instances_.size())];
    const bool is_switch = flip_rng_.Unit() < p_.switch_share;
    const int index = static_cast<int>(flip_rng_.Below(
        is_switch ? inst.type->hot.size() : inst.type->toggles.size()));
    ScheduleFlip();
    // A flip never races an evolution of the same instance: the evolution
    // adopts its target's whole configuration, so the flip waits for it.
    if (inst.busy) {
      inst.deferred_flips.emplace_back(is_switch, index);
      return;
    }
    ApplyFlip(inst, is_switch, index);
  }

  void ApplyFlip(InstanceRig& inst, bool is_switch, int index) {
    Dcdo* object = inst.type->manager->FindInstance(inst.id);
    const TypeRig& type = *inst.type;
    const auto i = static_cast<std::size_t>(index);
    ++result_.attempted;
    Status status;
    LoggedOp op{LoggedOp::Kind::kSwitch, index};
    {
      Span span(tracer_, "dfm.config", config_ops_, &config_ns_);
      if (is_switch) {
        status = object->SwitchImplementation(
            type.hot[i], inst.hot_on_b[i] ? type.hot_a : type.hot_b);
      } else if (inst.toggle_enabled[i]) {
        op.kind = LoggedOp::Kind::kDisable;
        status = object->DisableFunction(type.toggles[i].first,
                                         type.toggles[i].second);
      } else {
        op.kind = LoggedOp::Kind::kEnable;
        status = object->EnableFunction(type.toggles[i].first,
                                        type.toggles[i].second);
      }
    }
    Hash(0xF11F000000000000ull + config_ops_++, sim().Now());
    if (!status.ok()) {
      ++result_.failed;
      return;
    }
    ++result_.completed;
    ++flips_;
    inst.log.push_back(op);
    Replay(inst, op);
  }

  // Applies one logged op to the benchmark's model of the instance.
  static void Replay(InstanceRig& inst, const LoggedOp& op) {
    const auto i = static_cast<std::size_t>(op.index);
    switch (op.kind) {
      case LoggedOp::Kind::kSwitch:
        inst.hot_on_b[i] = !inst.hot_on_b[i];
        break;
      case LoggedOp::Kind::kEnable:
        inst.toggle_enabled[i] = 1;
        break;
      case LoggedOp::Kind::kDisable:
        inst.toggle_enabled[i] = 0;
        break;
      case LoggedOp::Kind::kEvolve:
        // The evolution adopts the target version's whole configuration.
        std::fill(inst.hot_on_b.begin(), inst.hot_on_b.end(), 0);
        std::fill(inst.toggle_enabled.begin(), inst.toggle_enabled.end(), 1);
        inst.at_extra = op.index;
        break;
    }
  }

  // ----- evolutions (evolve_under_calls) -----

  void ScheduleEvolve(std::size_t i) {
    InstanceRig& inst = instances_[i];
    sim::SimTime at = sim().Now() + inst.evolve_rng->Exp(p_.evolve_gap_s);
    if (at > horizon_) return;
    sim().ScheduleAt(at, [this, i] { IssueEvolve(i); });
  }

  void IssueEvolve(std::size_t i) {
    InstanceRig& inst = instances_[i];
    TypeRig& type = *inst.type;
    int target = -1;  // back to base: drops the extra component
    if (inst.at_extra < 0) {
      const bool want_cold = inst.evolve_rng->Unit() < p_.cold_share;
      if ((want_cold || inst.last_extra < 0) &&
          inst.next_fresh_extra < static_cast<int>(type.extras.size())) {
        target = inst.next_fresh_extra++;
      } else {
        target = inst.last_extra;
      }
      inst.last_extra = target;
      ++adds_;
      sim::SimHost* host = testbed_.host(inst.host);
      if (!host->ComponentCached(type.extras[static_cast<std::size_t>(target)].id)) {
        ++cold_adds_;
      }
    }
    const VersionId& version =
        target < 0 ? type.base
                   : type.extra_versions[static_cast<std::size_t>(target)];
    inst.busy = true;
    ++outstanding_;
    ++result_.attempted;
    const sim::SimTime issued = sim().Now();
    const std::uint64_t op = 0xE70E000000000000ull + evolutions_issued_++;
    Span span(tracer_, "core.evolve", op);
    type.manager->EvolveInstanceTo(
        inst.id, version, [this, i, target, issued, op](Status status) {
          InstanceRig& inst = instances_[i];
          --outstanding_;
          Hash(op, sim().Now());
          inst.busy = false;
          if (status.ok()) {
            ++result_.completed;
            result_.evolve_ns.push_back((sim().Now() - issued).nanos());
            LoggedOp logged{LoggedOp::Kind::kEvolve, target};
            inst.log.push_back(logged);
            Replay(inst, logged);
          } else {
            ++result_.failed;
            Fail("evolution failed: " + status.ToString());
          }
          std::vector<std::pair<bool, int>> deferred;
          deferred.swap(inst.deferred_flips);
          for (const auto& [is_switch, index] : deferred) {
            ApplyFlip(inst, is_switch, index);
          }
          ScheduleEvolve(i);
        });
  }

  // ----- migrations (migrate_churn) -----

  void ScheduleMigration() {
    next_migration_ =
        next_migration_ + migrate_rng_.Exp(1.0 / p_.migrations_per_s);
    if (next_migration_ > horizon_) return;
    sim().ScheduleAt(next_migration_, [this] { IssueMigration(); });
  }

  void IssueMigration() {
    const std::size_t pick = migrate_rng_.Below(instances_.size());
    std::size_t dest = migrate_rng_.Below(testbed_.host_count() - 1);
    ScheduleMigration();
    // The first eligible instance at or after the pick (cyclically): one not
    // already moving whose last move is older than the cooldown.
    const sim::SimTime now = sim().Now();
    const auto cooldown = sim::SimDuration::Seconds(p_.migrate_cooldown_s);
    std::size_t i = pick;
    for (std::size_t tries = 0;; ++tries, i = (i + 1) % instances_.size()) {
      if (tries == instances_.size()) {
        return Fail("no instance was free to migrate; the churn rate "
                    "outgrew the cooldown");
      }
      const InstanceRig& inst = instances_[i];
      if (!inst.busy && (!inst.migrated || now - inst.last_migrated >= cooldown)) {
        break;
      }
    }
    InstanceRig& inst = instances_[i];
    if (dest >= inst.host) ++dest;
    inst.busy = true;
    ++outstanding_;
    ++result_.attempted;
    const std::uint64_t op = 0x3161000000000000ull + migrations_issued_++;
    Span span(tracer_, "core.migrate", op);
    inst.type->manager->MigrateInstance(
        inst.id, testbed_.host(dest), [this, i, dest, now, op](Status status) {
          InstanceRig& inst = instances_[i];
          --outstanding_;
          Hash(op, sim().Now());
          inst.busy = false;
          inst.migrated = true;
          inst.last_migrated = sim().Now();
          if (status.ok()) {
            ++result_.completed;
            inst.host = dest;
            result_.migrate_ns.push_back((sim().Now() - now).nanos());
          } else {
            ++result_.failed;
            Fail("migration failed: " + status.ToString());
          }
        });
  }

  // ----- counters -----

  struct Snapshot {
    std::uint64_t events = 0, msgs = 0, bytes = 0, dropped = 0;
    std::uint64_t delivered = 0, epoch_rejections = 0;
    std::uint64_t dedup_hits = 0, dedup_capacity_evictions = 0;
    std::uint64_t timeouts = 0, rebinds = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0, cache_refreshes = 0;
    std::uint64_t lookups = 0;
    std::uint64_t table_versions = 0, resolved = 0, rejected = 0;
    std::uint64_t fetches = 0, coalesced = 0;
    std::uint64_t evictions = 0, cached_images = 0;
    std::uint64_t allocs = 0, alloc_bytes = 0;
  };

  Snapshot Take() {
    Snapshot s;
    s.events = sim().events_fired();
    s.msgs = testbed_.network().messages_sent();
    s.bytes = testbed_.network().bytes_sent();
    s.dropped = testbed_.network().messages_dropped();
    const rpc::RpcTransport& transport = testbed_.transport();
    s.delivered = transport.invocations_delivered();
    s.epoch_rejections = transport.epoch_rejections();
    s.dedup_hits = DedupHits(transport);
    s.dedup_capacity_evictions = DedupCapacityEvictions(transport);
    for (const auto& client : clients_) {
      s.timeouts += client->timeouts();
      s.rebinds += client->rebinds();
      s.cache_hits += client->cache().hits();
      s.cache_misses += client->cache().misses();
      s.cache_refreshes += client->cache().refreshes();
    }
    s.lookups = testbed_.agent().lookups_served();
    for (const InstanceRig& inst : instances_) {
      const Dcdo* object = inst.type->manager->FindInstance(inst.id);
      s.table_versions += object->mapper().table_version();
      s.resolved += object->mapper().calls_resolved();
      s.rejected += object->mapper().calls_rejected();
    }
    for (const TypeRig& type : types_) {
      s.fetches += type.manager->fetcher().fetches_issued();
      s.coalesced += type.manager->fetcher().fetches_coalesced();
    }
    for (std::size_t h = 0; h < testbed_.host_count(); ++h) {
      s.evictions += testbed_.host(h)->component_evictions();
      s.cached_images += testbed_.host(h)->cached_component_count();
    }
    s.allocs = g_allocs.load();
    s.alloc_bytes = g_alloc_bytes.load();
    return s;
  }

  void Report(const Snapshot& a, const Snapshot& b) {
    auto& m = result_.layer;
    const double ops = std::max<double>(1.0, static_cast<double>(result_.completed));
    const double calls =
        std::max<double>(1.0, static_cast<double>(result_.call_ns.size()));
    const auto n_calls = static_cast<std::uint64_t>(result_.call_ns.size());
    const auto n_ops = result_.completed;
    const double events = static_cast<double>(b.events - a.events);
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    m["sim.run_host_s"] = {result_.run_s, "s", 1};
    m["sim.events_per_op"] = {events / ops, "count", n_ops};
    m["sim.host_ns_per_event"] = {result_.run_s * 1e9 / std::max(1.0, events),
                                  "ns", b.events - a.events};
    m["sim.net_msgs_per_call"] = {count(b.msgs - a.msgs) / calls, "count", n_calls};
    m["sim.net_bytes_per_call"] = {count(b.bytes - a.bytes) / calls, "B", n_calls};
    m["sim.peak_pending_events"] = {count(peak_pending_), "count", n_calls};
    m["sim.net_dropped"] = {count(b.dropped - a.dropped), "count", 1};

    m["rpc.deliveries_per_call"] = {count(b.delivered - a.delivered) / calls,
                                    "ratio", n_calls};
    m["rpc.timeouts_per_kcall"] = {count(b.timeouts - a.timeouts) * 1000.0 / calls,
                                   "count", n_calls};
    m["rpc.rebinds_per_kcall"] = {count(b.rebinds - a.rebinds) * 1000.0 / calls,
                                  "count", n_calls};
    m["rpc.epoch_rejections"] = {count(b.epoch_rejections - a.epoch_rejections),
                                 "count", 1};
    m["rpc.dedup_hits"] = {count(b.dedup_hits - a.dedup_hits), "count", 1};
    m["rpc.dedup_capacity_evictions"] = {
        count(b.dedup_capacity_evictions - a.dedup_capacity_evictions), "count", 1};

    const std::uint64_t lookups_hits = b.cache_hits - a.cache_hits;
    const std::uint64_t lookups_all = lookups_hits + (b.cache_misses - a.cache_misses);
    m["naming.cache_hit_ratio"] = {
        lookups_all == 0 ? 0.0 : count(lookups_hits) / count(lookups_all), "ratio",
        lookups_all};
    m["naming.lookups_served"] = {count(b.lookups - a.lookups), "count", 1};
    m["naming.cache_refreshes"] = {count(b.cache_refreshes - a.cache_refreshes),
                                   "count", 1};

    m["dfm.table_versions"] = {count(b.table_versions - a.table_versions), "count", 1};
    m["dfm.calls_resolved"] = {count(b.resolved - a.resolved), "count", 1};
    m["dfm.calls_rejected"] = {count(b.rejected - a.rejected), "count", 1};
    m["dfm.flips"] = {count(flips_), "count", 1};

    m["component.fetches_issued"] = {count(b.fetches - a.fetches), "count", 1};
    m["component.fetches_coalesced"] = {count(b.coalesced - a.coalesced), "count", 1};
    m["component.cache_evictions"] = {count(b.evictions - a.evictions), "count", 1};
    m["component.images_fetched"] = {
        count((b.cached_images + b.evictions) - (a.cached_images + a.evictions)),
        "count", 1};
    m["component.cold_evolve_share"] = {
        adds_ == 0 ? 0.0 : count(cold_adds_) / count(adds_), "ratio", adds_};

    m["core.evolutions"] = {count(result_.evolve_ns.size()), "count", 1};
    m["core.migrations"] = {count(result_.migrate_ns.size()), "count", 1};
    m["core.migrate_p50_ms"] = {Percentile(result_.migrate_ns, 50) / 1e6, "ms",
                                result_.migrate_ns.size()};

    m["mem.allocs_per_op"] = {count(b.allocs - a.allocs) / ops, "count", n_ops};
    m["mem.alloc_bytes_per_op"] = {count(b.alloc_bytes - a.alloc_bytes) / ops, "B",
                                   n_ops};
    m["app.bodies"] = {count(bodies_), "count", 1};

    if (tracer_.on()) {
      m["rpc.invoke_host_ns_p50"] = {Percentile(invoke_ns_, 50), "ns",
                                     invoke_ns_.size()};
      m["rpc.invoke_host_ns_p99"] = {Percentile(invoke_ns_, 99), "ns",
                                     invoke_ns_.size()};
      m["dfm.config_host_us_p50"] = {Percentile(config_ns_, 50) / 1e3, "us",
                                     config_ns_.size()};
      m["dfm.config_host_us_p99"] = {Percentile(config_ns_, 99) / 1e3, "us",
                                     config_ns_.size()};
      m["app.body_host_ns"] = {bodies_ == 0 ? 0.0 : count(body_ns_) / count(bodies_),
                               "ns", bodies_};
      std::int64_t invoke_total = 0;
      for (std::int64_t ns : invoke_ns_) invoke_total += ns;
      std::int64_t config_total = 0;
      for (std::int64_t ns : config_ns_) config_total += ns;
      // Host time the engine, transport, dispatch and DFM spent outside the
      // benchmark's own spans.
      m["sim.run_self_host_s"] = {
          result_.run_s - static_cast<double>(invoke_total + config_total + body_ns_) / 1e9,
          "s", 1};
    }
  }

  // ----- output checks -----

  void Check() {
    std::uint64_t ok_calls = 0;
    for (std::size_t op = 0; op < calls_.size(); ++op) {
      const CallRecord& call = calls_[op];
      if (call.state == 0) {
        Fail("call " + std::to_string(op) + " never completed");
      } else if (call.state == 1 && call.bodies != 1) {
        Fail("call " + std::to_string(op) + " ran its body " +
             std::to_string(call.bodies) + " times");
      } else if (call.state == 2 && call.bodies > 1) {
        Fail("failed call " + std::to_string(op) + " ran its body " +
             std::to_string(call.bodies) + " times");
      }
      ok_calls += call.state == 1 ? 1 : 0;
    }
    std::uint64_t failed_bodies = 0;
    for (const CallRecord& call : calls_) {
      failed_bodies += call.state == 2 ? call.bodies : 0;
    }
    if (bodies_ != ok_calls + failed_bodies) {
      Fail("bodies ran " + std::to_string(bodies_) + " times for " +
           std::to_string(ok_calls) + " completed calls");
    }
    if (result_.layer["dfm.calls_rejected"].value != 0) {
      Fail("the DFM rejected calls to enabled functions");
    }
    if (workload_ == Workload::kSteadyCalls &&
        result_.layer["dfm.table_versions"].value != 0) {
      Fail("steady_calls reconfigured a DFM");
    }
    if (workload_ == Workload::kEvolveUnderCalls && result_.calls_missed != 0) {
      Fail(std::to_string(result_.calls_missed) +
           " calls failed or took over 1 s while instances evolved");
    }
    // Each instance's configuration must equal the replay of its op log.
    for (const InstanceRig& inst : instances_) {
      InstanceRig replay;
      replay.hot_on_b.assign(inst.hot_on_b.size(), 0);
      replay.toggle_enabled.assign(inst.toggle_enabled.size(), 1);
      for (const LoggedOp& op : inst.log) Replay(replay, op);
      const TypeRig& type = *inst.type;
      const Dcdo* object = type.manager->FindInstance(inst.id);
      const DfmState& state = object->mapper().state();
      const std::string who = "instance " + inst.id.ToString() + ": ";
      const VersionId& version =
          replay.at_extra < 0
              ? type.base
              : type.extra_versions[static_cast<std::size_t>(replay.at_extra)];
      if (object->version() != version) {
        Fail(who + "at version " + object->version().ToString() + ", expected " +
             version.ToString());
      }
      for (std::size_t h = 0; h < type.hot.size(); ++h) {
        const DfmEntry* impl = state.EnabledImpl(type.hot[h]);
        const ObjectId& want = replay.hot_on_b[h] ? type.hot_b : type.hot_a;
        if (impl == nullptr || impl->component != want) {
          Fail(who + type.hot[h] + " is served by the wrong implementation");
        }
      }
      for (std::size_t t = 0; t < type.toggles.size(); ++t) {
        const bool enabled = state.EnabledImpl(type.toggles[t].first) != nullptr;
        if (enabled != static_cast<bool>(replay.toggle_enabled[t])) {
          Fail(who + type.toggles[t].first + " has the wrong enabled flag");
        }
      }
      for (std::size_t x = 0; x < type.extras.size(); ++x) {
        const bool want = replay.at_extra == static_cast<int>(x);
        for (const FunctionImplDescriptor& fn : type.extras[x].functions) {
          if ((state.EnabledImpl(fn.function.name) != nullptr) != want) {
            Fail(who + fn.function.name + " is present against the log");
          }
        }
      }
    }
  }

  Workload workload_;
  Params p_;
  std::uint64_t seed_;
  Tracer& tracer_;
  RepResult result_;
  // Declared before everything that refers into it; destroyed last.
  Testbed testbed_;
  std::vector<TypeRig> types_;
  std::vector<InstanceRig> instances_;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients_;
  std::vector<Rng> client_rngs_;
  std::vector<sim::SimTime> next_arrival_;
  Rng flip_rng_{seed_, 0xF11F};
  Rng migrate_rng_{seed_, 0x3161};
  sim::SimTime start_;
  sim::SimTime horizon_;
  sim::SimTime next_flip_;
  sim::SimTime next_migration_;
  std::vector<CallRecord> calls_;
  std::int64_t outstanding_ = 0;
  std::uint64_t peak_pending_ = 0;
  std::uint64_t bodies_ = 0;
  std::int64_t body_ns_ = 0;
  std::vector<std::int64_t> invoke_ns_;
  std::vector<std::int64_t> config_ns_;
  std::uint64_t config_ops_ = 0;
  std::uint64_t flips_ = 0;
  std::uint64_t adds_ = 0;
  std::uint64_t cold_adds_ = 0;
  std::uint64_t evolutions_issued_ = 0;
  std::uint64_t migrations_issued_ = 0;
};

// ===== Output =====

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void WriteTrace(const std::string& path, const Tracer& tracer,
                const std::map<std::string, Metric>& layer,
                const std::map<std::string, std::string>& config) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\": [\n";
  const std::vector<SpanRecord>& spans = tracer.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << JsonNumber(static_cast<double>(s.begin_ns - origin) / 1e3)
        << ", \"dur\": "
        << JsonNumber(static_cast<double>(s.end_ns - s.begin_ns) / 1e3)
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
  }
  out << "\n], \"dropped_spans\": " << tracer.dropped() << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, metric] : layer) {
    out << (first ? "" : ", ") << JsonString(name) << ": "
        << JsonNumber(metric.value);
    first = false;
  }
  out << "}, \"config\": {";
  first = true;
  for (const auto& [key, value] : config) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << "}}\n";
}

struct Args {
  Workload workload = Workload::kSteadyCalls;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "dcdo_bench: %s\nusage: dcdo_bench --workload "
               "steady_calls|evolve_under_calls|migrate_churn --seed N "
               "--seconds S [--trace 0|1] [--trace-out PATH] [--commit SHA] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "steady_calls") {
        args.workload = Workload::kSteadyCalls;
      } else if (value == "evolve_under_calls") {
        args.workload = Workload::kEvolveUnderCalls;
      } else if (value == "migrate_churn") {
        args.workload = Workload::kMigrateChurn;
      } else {
        return Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const std::map<std::string, std::string> config = {
      {"workload", WorkloadName(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", DCDO_BENCH_COMPILER},
      {"build_type", DCDO_BENCH_BUILD_TYPE},
      {"commit", args.commit},
      {"source_digest", args.source_digest},
  };
  std::printf("config:");
  for (const auto& [key, value] : config) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");

  const Params params = ParamsFor(args.workload);
  Tracer tracer;
  std::vector<RepResult> reps;
  std::vector<bool> traced;
  std::vector<std::string> errors;
  // Peak RSS is read once the first repetition has run: later repetitions
  // only add allocator fragmentation, and how many of them fit in --seconds
  // depends on the host's speed.
  double peak_rss_mb = 0.0;
  // Repetitions rotate over the allowed CPUs: on a virtual machine a CPU
  // can be slowed for seconds by whatever shares its physical core, and a
  // run pinned to it would read that CPU, not the program.
  const std::vector<int> cpus = AllowedCpus();
  const std::int64_t begin = HostNs();
  for (int rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(HostNs() - begin) / 1e9;
    const int untraced_reps =
        static_cast<int>(std::count(traced.begin(), traced.end(), false));
    const int traced_reps = static_cast<int>(traced.size()) - untraced_reps;
    const bool enough = untraced_reps >= kMinReps &&
                        (!args.trace || traced_reps >= kMinTracedReps);
    if (enough && elapsed >= args.seconds) break;
    // In a traced run every second repetition is traced; only the first
    // traced repetition keeps its spans.
    const bool trace_this = args.trace && rep % 2 == 1;
    tracer.set_on(trace_this, traced_reps == 0);
    if (!cpus.empty()) PinTo(cpus[static_cast<std::size_t>(rep) % cpus.size()]);
    Rig rig(args.workload, params, args.seed, tracer);
    RepResult r = rig.Run();
    if (rep == 0) peak_rss_mb = PeakRssMb();
    tracer.set_on(false, false);
    std::printf(
        "rep %d%s: setup %.3f s, measured %.3f s, %llu ops (%.0f ops/s), "
        "hash %016llx%s\n",
        rep, trace_this ? " (traced)" : "", r.setup_s, r.run_s,
        static_cast<unsigned long long>(r.completed),
        static_cast<double>(r.completed) / std::max(r.run_s, 1e-9),
        static_cast<unsigned long long>(r.hash),
        r.errors.empty() ? "" : ", CHECK FAILED");
    std::fflush(stdout);
    for (const std::string& e : r.errors) errors.push_back(e);
    if (!reps.empty() && r.hash != reps.front().hash) {
      errors.push_back("repetition " + std::to_string(rep) +
                       " diverged from repetition 0 in simulated time");
    }
    reps.push_back(std::move(r));
    traced.push_back(trace_this);
    if (!errors.empty()) break;
  }

  const RepResult& first = reps.front();
  std::map<std::string, Metric> metrics;
  // Every repetition completes the same ops, so rates compare as times.
  std::vector<double> setup;
  std::vector<std::vector<double>> slices, traced_slices;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    (traced[i] ? traced_slices : slices).push_back(reps[i].slice_s);
    if (!traced[i]) setup.push_back(reps[i].setup_s);
  }
  const auto n_untraced = static_cast<std::uint64_t>(setup.size());
  const double ops = static_cast<double>(first.completed);
  const double run_time = SumOfFastestSlices(slices);
  metrics["setup_s"] = {Fastest(setup), "s", n_untraced};
  metrics["ops_per_s"] = {ops / std::max(run_time, 1e-9), "1/s", n_untraced};
  metrics["peak_rss_mb"] = {peak_rss_mb, "MB", 1};
  metrics["call_p50_ms"] = {Percentile(first.call_ns, 50) / 1e6, "ms",
                            first.call_ns.size()};
  metrics["call_p99_ms"] = {Percentile(first.call_ns, 99) / 1e6, "ms",
                            first.call_ns.size()};
  const double calls = std::max<double>(1.0, static_cast<double>(first.calls));
  metrics["call_miss_ratio"] = {static_cast<double>(first.calls_missed) / calls,
                                "ratio", first.calls};
  metrics["evolve_p50_ms"] = {Percentile(first.evolve_ns, 50) / 1e6, "ms",
                              first.evolve_ns.size()};
  metrics["evolve_p99_ms"] = {Percentile(first.evolve_ns, 99) / 1e6, "ms",
                              first.evolve_ns.size()};
  metrics["failed_ratio"] = {
      static_cast<double>(first.failed) /
          std::max<double>(1.0, static_cast<double>(first.attempted)),
      "ratio", first.attempted};

  if (args.trace) {
    // Per-layer metrics: counts from the first traced repetition (they are
    // deterministic), host times as medians over the traced repetitions.
    std::map<std::string, std::vector<double>> host_samples;
    const RepResult* first_traced = nullptr;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (!traced[i]) continue;
      if (first_traced == nullptr) first_traced = &reps[i];
      for (const auto& [name, metric] : reps[i].layer) {
        host_samples[name].push_back(metric.value);
      }
    }
    if (first_traced != nullptr) {
      for (const auto& [name, metric] : first_traced->layer) {
        Metric m = metric;
        const bool host_time = metric.unit == "s" || metric.unit == "ns" ||
                               metric.unit == "us" ||
                               name.starts_with("runtime.") ||
                               name == "sim.host_ns_per_event";
        if (host_time) m.value = Median(host_samples[name]);
        metrics[name] = m;
      }
    }
    // The end-to-end metrics BENCHMARK.json does not bound, repeated under
    // per-layer names: four do not apply to every workload, and host
    // throughput varies too much between runs on a shared machine.
    for (const char* name : {"ops_per_s", "evolve_p50_ms", "evolve_p99_ms",
                             "call_miss_ratio", "failed_ratio"}) {
      metrics[std::string("e2e.") + name] = metrics[name];
    }
    metrics["trace.overhead_ratio"] = {
        SumOfFastestSlices(traced_slices) / std::max(run_time, 1e-9), "ratio",
        static_cast<std::uint64_t>(traced_slices.size())};
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, tracer, metrics, config);
    }
  }

  std::printf("checks: %s\n", errors.empty() ? "all passed" : "FAILED");
  for (const std::string& e : errors) std::printf("  check failed: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"reps\": %zu, \"hash\": \"%016llx\", \"errors\": [",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed), reps.size(),
              static_cast<unsigned long long>(first.hash));
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", JsonString(errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool comma = false;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s%s: {\"value\": %s, \"unit\": %s, \"samples\": %llu}",
                comma ? ", " : "", JsonString(name).c_str(),
                JsonNumber(metric.value).c_str(),
                JsonString(metric.unit).c_str(),
                static_cast<unsigned long long>(metric.samples));
    comma = true;
  }
  std::printf("}}\n");
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dcdo::perfbench

int main(int argc, char** argv) { return dcdo::perfbench::Main(argc, argv); }
