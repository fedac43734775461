// Stress test of the lock-light dispatch fast path: many OS threads
// acquiring through both Acquire overloads (by name and by pre-resolved
// FunctionId) and holding their guards across a yield, while a churn thread
// switches implementations, flips enable state, removes/re-incorporates a
// whole component, commits one of two whole configurations, and remaps
// every body onto fresh record blocks. Runs with the instrumentation context
// installed, checker and span recorder both, so every call start/end and
// configuration change feeds the race detector from several threads while
// the churn thread's removals and swaps land as instants; at the end the
// detector's ledgers must balance
// and all seven built-in invariants must be quiet at error level (the only
// legal noise is race-unquiesced-swap / dfm-no-dangling warnings, which the
// paper explicitly permits: threads may proceed inside deactivated code).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dfm/mapper.h"
#include "instrument/context.h"
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

TEST(FastPathStress, AcquirersRaceChurnWithCheckerInstalled) {
  instrument::Context context({.checking = true, .tracing = true});
  context.Install();
  check::Checker& checker = *context.checker();

  NativeCodeRegistry registry;
  auto comp_a = testing::MakeEchoComponent(registry, "sa", {"f", "g"});
  auto comp_b = testing::MakeEchoComponent(registry, "sb", {"f"});
  DynamicFunctionMapper mapper;
  ObjectId owner = ObjectId::Next(domains::kInstance);
  mapper.SetCheckOwner(owner);
  ASSERT_TRUE(mapper.IncorporateComponent(comp_a, registry, kArch).ok());
  ASSERT_TRUE(mapper.IncorporateComponent(comp_b, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("f", comp_a.id).ok());
  ASSERT_TRUE(mapper.EnableFunction("g", comp_a.id).ok());

  FunctionId f_id = FunctionNameTable::Global().Find("f");
  ASSERT_TRUE(f_id.valid());

  // Two whole configurations for the churn thread to commit: f served by
  // A, or by B.
  DfmState on_a;
  DfmState on_b;
  for (DfmState* version : {&on_a, &on_b}) {
    ASSERT_TRUE(version->IncorporateComponent(comp_a).ok());
    ASSERT_TRUE(version->IncorporateComponent(comp_b).ok());
    ASSERT_TRUE(version->EnableFunction("g", comp_a.id).ok());
  }
  ASSERT_TRUE(on_a.EnableFunction("f", comp_a.id).ok());
  ASSERT_TRUE(on_b.EnableFunction("f", comp_b.id).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> guards{0};
  std::atomic<std::uint64_t> successes{0};

  // Two by-name acquirers and two by-id acquirers. Every outcome must be a
  // completed call or a typed evolution error — never a crash, a torn slot
  // read, or a stale body producing the wrong payload.
  std::vector<std::thread> acquirers;
  for (int t = 0; t < 4; ++t) {
    acquirers.emplace_back([&, t] {
      NullCtx ctx;
      ByteBuffer args = ByteBuffer::FromString("x");
      while (!stop.load(std::memory_order_relaxed)) {
        auto guard = (t % 2 == 0)
                         ? mapper.Acquire("f", CallOrigin::kExternal)
                         : mapper.Acquire(f_id, CallOrigin::kExternal);
        if (!guard.ok()) {
          ASSERT_TRUE(guard.status().code() == ErrorCode::kFunctionMissing ||
                      guard.status().code() == ErrorCode::kFunctionDisabled)
              << guard.status();
          continue;
        }
        ++guards;
        // Hold the guard while the churn thread moves on: its body must
        // still run after a switch, a commit or a remap.
        std::this_thread::yield();
        auto result = guard->body()(ctx, args);
        ASSERT_TRUE(result.ok());
        std::string reply = result->ToString();
        ASSERT_TRUE(reply == "sa.f:x" || reply == "sb.f:x") << reply;
        ++successes;
      }
    });
  }

  // Churn: implementation switches on every step, enable flips, wholesale
  // commits alternating between the two versions, remaps onto fresh
  // record blocks, and a full remove/re-incorporate cycle of component B
  // (quiescence-respecting — the removal retries until it catches a gap
  // between calls).
  std::uint64_t version_before = mapper.table_version();
  std::thread churn([&] {
    bool to_b = true;
    for (int i = 0; i < 2000; ++i) {
      (void)mapper.SwitchImplementation("f", to_b ? comp_b.id : comp_a.id);
      to_b = !to_b;
      if (i % 50 == 0) {
        const DfmEntry* enabled = mapper.state().EnabledImpl("f");
        if (enabled != nullptr) {
          ObjectId target = enabled->component;
          (void)mapper.DisableFunction("f", target,
                                       /*respect_active_dependents=*/false);
          (void)mapper.EnableFunction("f", target);
        }
      }
      if (i % 10 == 5) {
        // Both keep A and B, whose blocks and counts carry over.
        DfmState target = i % 20 == 5 ? on_a : on_b;
        std::vector<DynamicFunctionMapper::ResolvedComponent> none;
        ASSERT_TRUE(mapper
                        .CommitConfiguration(target, none,
                                             /*enforce_marks=*/false)
                        .ok());
      }
      if (i % 25 == 0) {
        ASSERT_TRUE(mapper.RemapBodies(registry, kArch).ok());
      }
      if (i % 100 == 0) {
        // Steer calls onto A so B can quiesce, then remove and bring it back.
        (void)mapper.SwitchImplementation("f", comp_a.id);
        Status removed = Status::Ok();
        for (int attempt = 0; attempt < 200; ++attempt) {
          removed = mapper.RemoveComponent(comp_b.id);
          if (removed.ok()) break;
          ASSERT_EQ(removed.code(), ErrorCode::kActiveThreads) << removed;
        }
        if (removed.ok()) {
          // Every copy of B shares one function list: the one incorporated
          // here is dropped at once, leaving the mapper's record to hold it.
          const ImplementationComponent copy = comp_b;
          ASSERT_TRUE(mapper.IncorporateComponent(copy, registry, kArch).ok());
        }
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  churn.join();
  stop.store(true);
  for (std::thread& thread : acquirers) thread.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(successes.load(), guards.load()) << "every guard's body ran";
  EXPECT_GT(mapper.table_version(), version_before)
      << "mutations bump the table stamp";

  // Every guard was released: the mapper's counters and the race detector's
  // invocation ledger both drain to zero.
  EXPECT_EQ(mapper.TotalActive(), 0);
  EXPECT_EQ(mapper.ActiveCount("f", comp_a.id), 0);
  EXPECT_EQ(mapper.ActiveCount("f", comp_b.id), 0);
  EXPECT_GE(mapper.calls_resolved(), successes.load());

  checker.EvaluateAtEnd();
  EXPECT_EQ(checker.races().InFlightCalls(owner), 0);
  // No forced removals happened, so nothing may be error-level.
  EXPECT_TRUE(checker.diagnostics().Clean())
      << checker.diagnostics().DumpText();
  EXPECT_EQ(checker.diagnostics().CountFor("race-forced-removal"), 0u);
  EXPECT_EQ(checker.diagnostics().CountFor("thread-accounting"), 0u);
  EXPECT_GT(context.spans()->span_count(), 0u);
  context.Uninstall();
}

// The by-id fast path sees configuration changes exactly like the by-name
// path: after a switch, the next Acquire(FunctionId) resolves to the new
// component (no caller-side caching of bodies across table versions).
TEST(FastPathStress, ByIdAcquireObservesSwitchImmediately) {
  NativeCodeRegistry registry;
  auto comp_a = testing::MakeEchoComponent(registry, "ia", {"h"});
  auto comp_b = testing::MakeEchoComponent(registry, "ib", {"h"});
  DynamicFunctionMapper mapper;
  ASSERT_TRUE(mapper.IncorporateComponent(comp_a, registry, kArch).ok());
  ASSERT_TRUE(mapper.IncorporateComponent(comp_b, registry, kArch).ok());
  ASSERT_TRUE(mapper.EnableFunction("h", comp_a.id).ok());

  FunctionId id = FunctionNameTable::Global().Find("h");
  ASSERT_TRUE(id.valid());
  NullCtx ctx;
  ByteBuffer args = ByteBuffer::FromString("z");

  auto first = mapper.Acquire(id, CallOrigin::kExternal);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->body()(ctx, args)->ToString(), "ia.h:z");
  first->Release();

  std::uint64_t stamp = mapper.table_version();
  ASSERT_TRUE(mapper.SwitchImplementation("h", comp_b.id).ok());
  EXPECT_GT(mapper.table_version(), stamp);

  auto second = mapper.Acquire(id, CallOrigin::kExternal);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->component(), comp_b.id);
  EXPECT_EQ(second->body()(ctx, args)->ToString(), "ib.h:z");
}

}  // namespace
}  // namespace dcdo
