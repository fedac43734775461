// Real-thread hammering of the DynamicFunctionMapper: the mapper is the one
// component of the reproduction that must be *actually* thread-safe (every
// call in a real deployment races configuration changes). These tests run
// OS threads, not simulated ones.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dfm/descriptor.h"
#include "dfm/mapper.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

constexpr auto kArch = sim::Architecture::kX86Linux;

class NullCtx : public CallContext {
 public:
  Result<ByteBuffer> CallInternal(const std::string&,
                                  const ByteBuffer&) override {
    return FunctionMissingError("none");
  }
  ObjectId self_id() const override { return ObjectId(); }
  void BlockOnOutcall(double) override {}
};

TEST(MapperConcurrency, CallersRaceConfigurationSafely) {
  NativeCodeRegistry registry;
  auto comp_a = testing::MakeEchoComponent(registry, "ca", {"f"});
  auto comp_b = testing::MakeEchoComponent(registry, "cb", {"f"});
  DynamicFunctionMapper mapper;
  ASSERT_TRUE(mapper.IncorporateComponent(comp_a, registry, kArch).ok());
  ASSERT_TRUE(mapper.IncorporateComponent(comp_b, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("f", comp_a.id).ok());

  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> typed_failures{0};
  // Every thread does a fixed amount of work, so the test's run time does
  // not depend on how the host schedules the callers against the
  // configurator; they start together so the two kinds of work overlap.
  constexpr int kThreads = 5;
  constexpr int kCallsPerCaller = 3000;
  std::atomic<int> ready{0};
  auto start_together = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < kThreads) std::this_thread::yield();
  };

  // 4 caller threads: every outcome must be success or a typed evolution
  // error; anything else (crash, data race, wrong payload) fails the test.
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads - 1; ++t) {
    callers.emplace_back([&] {
      NullCtx ctx;
      ByteBuffer args = ByteBuffer::FromString("x");
      start_together();
      for (int call = 0; call < kCallsPerCaller; ++call) {
        auto guard = mapper.Acquire("f", CallOrigin::kExternal);
        if (!guard.ok()) {
          ASSERT_TRUE(guard.status().code() == ErrorCode::kFunctionDisabled ||
                      guard.status().code() == ErrorCode::kFunctionMissing)
              << guard.status();
          ++typed_failures;
          continue;
        }
        auto result = guard->body()(ctx, args);
        ASSERT_TRUE(result.ok());
        std::string reply = result->ToString();
        ASSERT_TRUE(reply == "ca.f:x" || reply == "cb.f:x") << reply;
        ++successes;
      }
    });
  }

  // 1 configurator thread: keeps switching f's implementation and
  // occasionally disables/re-enables it.
  std::thread configurator([&] {
    start_together();
    bool to_b = true;
    for (int i = 0; i < 3000; ++i) {
      ObjectId target = to_b ? comp_b.id : comp_a.id;
      (void)mapper.SwitchImplementation("f", target);
      to_b = !to_b;
      if (i % 100 == 0) {
        const DfmEntry* enabled = nullptr;
        // Snapshot under the mapper's own synchronization via public API.
        enabled = mapper.state().EnabledImpl("f");
        if (enabled != nullptr) {
          (void)mapper.DisableFunction("f", enabled->component,
                                       /*respect_active_dependents=*/false);
          (void)mapper.EnableFunction("f", target);
        }
      }
    }
  });

  configurator.join();
  for (std::thread& thread : callers) thread.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(mapper.TotalActive(), 0) << "all guards released";
  // The mapper's own counters are consistent with what the threads saw.
  EXPECT_GE(mapper.calls_resolved(), successes.load());
}

TEST(MapperConcurrency, RemovalRacesActiveGuards) {
  NativeCodeRegistry registry;
  auto comp = testing::MakeEchoComponent(registry, "cr", {"f"});
  DynamicFunctionMapper mapper;
  ASSERT_TRUE(mapper.IncorporateComponent(comp, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("f", comp.id).ok());

  std::atomic<bool> stop{false};
  std::thread caller([&] {
    NullCtx ctx;
    while (!stop.load(std::memory_order_relaxed)) {
      auto guard = mapper.Acquire("f", CallOrigin::kExternal);
      if (guard.ok()) {
        (void)guard->body()(ctx, ByteBuffer{});
      }
    }
  });

  // Try to remove while calls are in flight: must either succeed (no active
  // threads at that instant) or fail with kActiveThreads — never crash.
  int removed_attempts = 0;
  bool removed = false;
  for (int i = 0; i < 2000; ++i) {
    Status status = mapper.RemoveComponent(comp.id);
    ++removed_attempts;
    if (status.ok()) {
      removed = true;
      break;
    }
    ASSERT_EQ(status.code(), ErrorCode::kActiveThreads);
  }
  stop.store(true);
  caller.join();
  if (!removed) {
    // All attempts raced with an active call (likely on a fast machine, where
    // the caller thread reacquires immediately). Give it one guaranteed-quiet
    // chance now that the caller has stopped.
    EXPECT_TRUE(mapper.RemoveComponent(comp.id).ok());
  }
  EXPECT_FALSE(mapper.state().HasComponent(comp.id));
  EXPECT_GT(removed_attempts, 0);
}

// Callers acquire by name and by id while a whole version's table is
// committed onto their empty mapper: every acquire sees either the empty
// table (kFunctionMissing) or the complete committed one, never a
// half-derived slot table, and once a caller has reached the committed
// table it never loses a function again.
TEST(MapperConcurrency, AcquireRacesInstall) {
  NativeCodeRegistry registry;
  DfmDescriptor version(VersionId::Root().Child(1));
  std::vector<std::string> functions;
  for (int c = 0; c < 40; ++c) {
    const std::string name = "ci" + std::to_string(c);
    auto comp = testing::MakeEchoComponent(registry, name,
                                           {name + "_f", name + "_g"});
    ASSERT_TRUE(version.IncorporateComponent(comp).ok());
    ASSERT_TRUE(version.EnableFunction(name + "_f", comp.id).ok());
    functions.push_back(name + "_f");
  }
  ASSERT_TRUE(version.MarkInstantiable().ok());
  std::vector<DynamicFunctionMapper::ResolvedComponent> resolved;
  for (const ComponentRecord& record : version.state().components()) {
    auto bodies =
        DynamicFunctionMapper::ResolveComponent(*record, registry, kArch);
    ASSERT_TRUE(bodies.ok()) << bodies.status();
    resolved.push_back(*std::move(bodies));
  }

  DynamicFunctionMapper mapper;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> missing{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<int> failures{0};
  std::atomic<int> running{4};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      NullCtx ctx;
      const ByteBuffer args = ByteBuffer::FromString("x");
      bool installed = false;
      for (std::size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string& fn = functions[i % functions.size()];
        auto guard = i % 2 == 0
                         ? mapper.Acquire(fn, CallOrigin::kExternal)
                         : mapper.Acquire(FunctionNameTable::Global().Find(fn),
                                          CallOrigin::kExternal);
        if (!guard.ok()) {
          if (installed ||
              guard.status().code() != ErrorCode::kFunctionMissing) {
            ADD_FAILURE() << fn << ": " << guard.status();
            ++failures;
            break;
          }
          ++missing;
          continue;
        }
        installed = true;
        auto result = guard->body()(ctx, args);
        const std::string component = fn.substr(0, fn.size() - 2);
        if (!result.ok() || result->ToString() != component + "." + fn + ":x") {
          ADD_FAILURE() << fn << " ran the wrong body";
          ++failures;
          break;
        }
        ++served;
      }
      --running;
    });
  }
  // Let the callers meet the empty table, commit, and let them read the
  // committed one for a while.
  while (missing.load() < 100 && running.load() == 4) std::this_thread::yield();
  DfmState target = version.state();
  EXPECT_TRUE(mapper.CommitConfiguration(target, resolved, false).ok());
  while (served.load() < 4000 && running.load() == 4) std::this_thread::yield();
  stop.store(true);
  for (std::thread& thread : callers) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(served.load(), 4000u);
  EXPECT_EQ(mapper.TotalActive(), 0) << "all guards released";
  EXPECT_EQ(mapper.state().entry_count(), version.state().entry_count());
}

}  // namespace
}  // namespace dcdo
