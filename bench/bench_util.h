// Shared scenario builders for the benchmark harness.
//
// Sim-time benches use google-benchmark's manual-time mode: each iteration
// runs a deterministic discrete-event scenario and reports the *simulated*
// duration as the iteration time, so the numbers printed by the harness are
// directly comparable to the paper's (seconds of Centurion time, not
// nanoseconds of host time). Wall-clock benches (DFM indirection, table
// scaling) use ordinary real-time mode.
// Every bench binary built with DCDO_BENCH_MAIN() also records its results
// into a regression-tracking JSON file (see JsonRecordingReporter below):
// set DCDO_BENCH_JSON=/path/to/BENCH_dcdo.json and entries are merged into
// the "benchmarks" object of that file, one line per benchmark, leaving the
// rest of the document (notes, committed baselines) untouched. scripts/
// bench.sh drives the whole suite this way.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/manager.h"
#include "runtime/class_object.h"
#include "runtime/testbed.h"

namespace dcdo::bench {

// Benches measure the raw runtime: no checker is installed, so each check
// hook is a null test.
inline Testbed::Options BenchOptions() {
  Testbed::Options options;
  options.checking = false;
  return options;
}

// Registers `count` trivial exported functions named <prefix>_fn0.. spread
// evenly over `components` components, and returns the component metas.
// Bodies are registered in `testbed`'s registry.
inline std::vector<ImplementationComponent> MakeFunctionGrid(
    Testbed& testbed, const std::string& prefix, std::size_t count,
    std::size_t components, std::size_t bytes_per_component = 100 * 1024) {
  std::vector<ImplementationComponent> out;
  out.reserve(components);
  std::size_t per = count / components;
  std::size_t extra = count % components;
  std::size_t fn_index = 0;
  for (std::size_t c = 0; c < components; ++c) {
    std::string name = prefix + "-c" + std::to_string(c);
    ComponentBuilder builder(name);
    builder.SetCodeBytes(bytes_per_component);
    std::size_t here = per + (c < extra ? 1 : 0);
    for (std::size_t i = 0; i < here; ++i, ++fn_index) {
      std::string fn = prefix + "_fn" + std::to_string(fn_index);
      std::string symbol = name + "/" + fn;
      testbed.registry().Register(
          symbol, ImplementationType::Portable(),
          [](CallContext&, const ByteBuffer& args) {
            return Result<ByteBuffer>(args);  // identity body
          });
      builder.AddFunction(fn, "b(b)", symbol);
    }
    auto built = builder.Build();
    if (!built.ok()) std::abort();
    out.push_back(*built);
  }
  return out;
}

// A manager whose current version incorporates and enables every function of
// `components` (published as ICOs on the manager's home host, host 0).
inline std::unique_ptr<DcdoManager> MakeManagerWithVersion(
    Testbed& testbed, const std::string& type_name,
    const std::vector<ImplementationComponent>& components,
    std::unique_ptr<EvolutionPolicy> policy) {
  auto manager = std::make_unique<DcdoManager>(
      type_name, testbed.host(0), &testbed.transport(), &testbed.agent(),
      &testbed.registry(), std::move(policy));
  for (const ImplementationComponent& comp : components) {
    if (!manager->PublishComponent(comp).ok()) std::abort();
  }
  VersionId v1 = *manager->CreateRootVersion();
  DfmDescriptor* descriptor = *manager->MutableDescriptor(v1);
  for (const ImplementationComponent& comp : components) {
    if (!descriptor->IncorporateComponent(comp).ok()) std::abort();
    for (const FunctionImplDescriptor& fn : comp.functions) {
      if (!descriptor->EnableFunction(fn.function.name, comp.id).ok()) {
        std::abort();
      }
    }
  }
  if (!manager->MarkInstantiable(v1).ok()) std::abort();
  if (!manager->SetCurrentVersion(v1).ok()) std::abort();
  return manager;
}

// Blocks on an async manager operation, driving the simulation.
inline ObjectId CreateInstanceBlocking(Testbed& testbed, DcdoManager& manager,
                                       sim::SimHost* host) {
  ObjectId out;
  bool done = false;
  manager.CreateInstance(host, [&](Result<ObjectId> result) {
    if (!result.ok()) std::abort();
    out = *result;
    done = true;
  });
  testbed.simulation().RunWhile([&] { return !done; });
  return out;
}

inline void EvolveBlocking(Testbed& testbed, DcdoManager& manager,
                           const ObjectId& instance, const VersionId& version) {
  bool done = false;
  manager.EvolveInstanceTo(instance, version, [&](Status status) {
    if (!status.ok()) std::abort();
    done = true;
  });
  testbed.simulation().RunWhile([&] { return !done; });
}

// Measures the simulated duration of `body`.
inline double SimSeconds(Testbed& testbed, const std::function<void()>& body) {
  sim::SimTime start = testbed.simulation().Now();
  body();
  return (testbed.simulation().Now() - start).ToSeconds();
}

// ===== JSON regression recording =====

namespace detail {

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

inline std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// ns per 1 unit of `unit` (benchmark reports adjusted times in `unit`).
inline double NanosPerUnit(::benchmark::TimeUnit unit) {
  return 1e9 / ::benchmark::GetTimeUnitMultiplier(unit);
}

}  // namespace detail

// Prints the usual console table AND records every finished run so the
// numbers land in the regression file. For manual-time sim benches the
// recorded real_ns is *simulated* nanoseconds — directly comparable to the
// paper's absolute figures; for wall benches it is host nanoseconds.
class JsonRecordingReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ::benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double to_ns = detail::NanosPerUnit(run.time_unit);
      std::ostringstream os;
      os << "{\"real_ns\": "
         << detail::FormatDouble(run.GetAdjustedRealTime() * to_ns)
         << ", \"cpu_ns\": "
         << detail::FormatDouble(run.GetAdjustedCPUTime() * to_ns)
         << ", \"iterations\": " << run.iterations;
      for (const auto& [name, counter] : run.counters) {
        os << ", \"" << detail::JsonEscape(name)
           << "\": " << detail::FormatDouble(counter.value);
      }
      if (!run.report_label.empty()) {
        os << ", \"label\": \"" << detail::JsonEscape(run.report_label)
           << "\"";
      }
      os << "}";
      entries_[run.benchmark_name()] = os.str();
    }
  }

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;  // name -> one-line JSON value
};

// Merges `entries` into the "benchmarks" object of the JSON file at `path`,
// preserving everything outside that object (schema line, committed
// baseline blocks). Entries are one per line, sorted, so diffs stay
// reviewable. Creates the file if absent.
inline void MergeBenchJson(const std::string& path,
                           const std::map<std::string, std::string>& entries) {
  std::vector<std::string> preamble;
  std::vector<std::string> postamble;
  std::map<std::string, std::string> merged;
  std::ifstream in(path);
  if (in) {
    enum class Where { kBefore, kInside, kAfter } where = Where::kBefore;
    std::string line;
    while (std::getline(in, line)) {
      if (where == Where::kBefore) {
        preamble.push_back(line);
        if (line.find("\"benchmarks\": {") != std::string::npos) {
          where = Where::kInside;
        }
      } else if (where == Where::kInside) {
        std::string trimmed = line;
        trimmed.erase(0, trimmed.find_first_not_of(" \t"));
        if (trimmed == "}" || trimmed == "},") {
          postamble.push_back(line);
          where = Where::kAfter;
          continue;
        }
        // An entry line:   "name": {...},
        std::size_t name_end = trimmed.find("\": ");
        if (trimmed.size() > 1 && trimmed[0] == '"' &&
            name_end != std::string::npos) {
          std::string name = trimmed.substr(1, name_end - 1);
          std::string value = trimmed.substr(name_end + 3);
          if (!value.empty() && value.back() == ',') value.pop_back();
          merged[name] = value;
        }
      } else {
        postamble.push_back(line);
      }
    }
  }
  if (preamble.empty()) {
    preamble = {"{", "  \"schema\": \"dcdo-bench-v1\",", "  \"benchmarks\": {"};
    postamble = {"  }", "}"};
  }
  for (const auto& [name, value] : entries) merged[name] = value;

  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  for (const std::string& line : preamble) out << line << "\n";
  std::size_t i = 0;
  for (const auto& [name, value] : merged) {
    out << "    \"" << name << "\": " << value
        << (++i == merged.size() ? "" : ",") << "\n";
  }
  for (const std::string& line : postamble) out << line << "\n";
}

// Called by DCDO_BENCH_MAIN after the run: honours DCDO_BENCH_JSON.
inline void FlushBenchJson(const JsonRecordingReporter& reporter) {
  const char* path = std::getenv("DCDO_BENCH_JSON");
  if (path == nullptr || *path == '\0' || reporter.entries().empty()) return;
  MergeBenchJson(path, reporter.entries());
}

}  // namespace dcdo::bench

// Drop-in replacement for BENCHMARK_MAIN(): same console output, plus JSON
// recording into $DCDO_BENCH_JSON when set.
#define DCDO_BENCH_MAIN()                                                 \
  int main(int argc, char** argv) {                                       \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::dcdo::bench::JsonRecordingReporter reporter;                        \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                       \
    ::dcdo::bench::FlushBenchJson(reporter);                              \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }                                                                       \
  int dcdo_bench_main_anchor_ = 0
