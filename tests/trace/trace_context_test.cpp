// Span recorder units: span lifecycle, the scope stack, installation of the
// instrumentation context, caps.
#include <gtest/gtest.h>

#include "instrument/context.h"
#include "sim/simulation.h"

namespace dcdo::trace {
namespace {

using instrument::Context;
using instrument::SpanScope;

// Installs a fresh tracing context per test and guarantees Uninstall on
// exit, so a failing test cannot leak a process-global context into its
// neighbors.
class TraceContextTest : public ::testing::Test {
 protected:
  TraceContextTest() {
    context_.AttachSimulation(&simulation_);
    context_.Install();
  }
  ~TraceContextTest() override { context_.Uninstall(); }

  sim::Simulation simulation_;
  Context context_{{.tracing = true}};
  SpanRecorder& ctx_ = *context_.spans();
};

TEST_F(TraceContextTest, InstallMakesContextCurrent) {
  EXPECT_EQ(Context::Current(), &context_);
  EXPECT_EQ(instrument::Spans(), &ctx_);
  // Tracing alone installs no checker.
  EXPECT_EQ(instrument::Probes(), nullptr);
  context_.Uninstall();
  EXPECT_EQ(Context::Current(), nullptr);
  EXPECT_EQ(instrument::Spans(), nullptr);
  context_.Install();  // restore for the fixture dtor
}

TEST_F(TraceContextTest, SpanLifecycleStampsSimTime) {
  simulation_.Schedule(sim::SimDuration::Seconds(1.0), [&]() {
    SpanId id = ctx_.BeginSpan(
        "rpc.call", {.category = "client", .node = 3, .call_id = 42});
    simulation_.Schedule(sim::SimDuration::Seconds(2.0), [&, id]() {
      ctx_.EndSpan(id, "outcome", "reply");
    });
  });
  simulation_.Run();

  auto spans = ctx_.SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  const Span& span = spans[0];
  EXPECT_EQ(span.name, "rpc.call");
  EXPECT_EQ(span.category, "client");
  EXPECT_EQ(span.node, 3u);
  EXPECT_EQ(span.call_id, 42u);
  EXPECT_EQ(span.sim_begin_ns, 1000000000);
  EXPECT_EQ(span.sim_end_ns, 3000000000);
  EXPECT_FALSE(span.open());
  ASSERT_EQ(span.notes.size(), 1u);
  EXPECT_EQ(span.notes[0].first, "outcome");
  EXPECT_EQ(span.notes[0].second, "reply");
}

TEST_F(TraceContextTest, ScopeStackParentsNestedSpans) {
  SpanId outer = ctx_.BeginSpan("outer");
  ctx_.PushScope(outer);
  SpanId inner = ctx_.BeginSpan("inner");  // default parent = scope top
  SpanId forced_root = ctx_.BeginSpan("root2", {.parent = 0});
  ctx_.PopScope();
  SpanId sibling = ctx_.BeginSpan("sibling");  // stack empty again
  ctx_.EndSpan(inner);
  ctx_.EndSpan(forced_root);
  ctx_.EndSpan(sibling);
  ctx_.EndSpan(outer);

  auto spans = ctx_.SnapshotSpans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0u);       // outer: root
  EXPECT_EQ(spans[1].parent, outer);    // inner: scoped under outer
  EXPECT_EQ(spans[2].parent, 0u);       // explicit parent=0 overrides scope
  EXPECT_EQ(spans[3].parent, 0u);       // stack popped

  // Root propagation: inner's causal tree root is outer.
  EXPECT_EQ(spans[1].root, outer);
  EXPECT_EQ(ctx_.RootOf(inner), outer);
  EXPECT_EQ(ctx_.RootOf(forced_root), forced_root);
}

TEST_F(TraceContextTest, ExplicitParentCrossesAsyncHop) {
  SpanId parent = ctx_.BeginSpan("rpc.send");
  ctx_.EndSpan(parent);
  // An async continuation names the parent by id — no scope stack involved.
  SpanId child = ctx_.BeginSpan("rpc.dispatch", {.parent = parent});
  ctx_.EndSpan(child);

  auto spans = ctx_.SnapshotSpans();
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[1].root, parent);
}

TEST_F(TraceContextTest, InstantIsClosedAtBirth) {
  SpanId mark = ctx_.Instant("rpc.timeout", {.attempt = 2});
  auto spans = ctx_.SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, Span::Kind::kInstant);
  EXPECT_EQ(spans[0].attempt, 2);
  EXPECT_EQ(spans[0].sim_end_ns, spans[0].sim_begin_ns);
  EXPECT_FALSE(spans[0].open());
  ctx_.EndSpan(mark);  // must be a harmless no-op on an instant
  EXPECT_EQ(ctx_.SnapshotSpans()[0].sim_end_ns, spans[0].sim_end_ns);
}

// A second close — even one carrying an outcome note — must not touch a
// span that already ended: the first outcome is the recorded truth (a late
// reply racing the timeout that closed the attempt is the real scenario).
TEST_F(TraceContextTest, EndSpanOnClosedSpanKeepsFirstOutcome) {
  SpanId id = ctx_.BeginSpan("rpc.attempt");
  ctx_.EndSpan(id, "outcome", "timeout");
  auto first = ctx_.SnapshotSpans()[0];
  ctx_.EndSpan(id, "outcome", "reply");
  auto spans = ctx_.SnapshotSpans();
  ASSERT_EQ(spans[0].notes.size(), 1u);
  EXPECT_EQ(spans[0].notes[0].second, "timeout");
  EXPECT_EQ(spans[0].sim_end_ns, first.sim_end_ns);
}

TEST_F(TraceContextTest, ZeroIdIsToleratedEverywhere) {
  ctx_.EndSpan(0);
  ctx_.EndSpan(0, "k", "v");
  ctx_.Annotate(0, "k", "v");
  EXPECT_EQ(ctx_.RootOf(0), 0u);
  EXPECT_EQ(ctx_.span_count(), 0u);
}

TEST_F(TraceContextTest, MaxSpansCapDropsAndCounts) {
  Context capped({.tracing = true, .max_spans = 2});
  capped.AttachSimulation(&simulation_);
  SpanRecorder& small = *capped.spans();
  EXPECT_NE(small.BeginSpan("a"), 0u);
  EXPECT_NE(small.BeginSpan("b"), 0u);
  EXPECT_EQ(small.BeginSpan("c"), 0u);  // dropped
  EXPECT_EQ(small.Instant("d"), 0u);    // dropped
  EXPECT_EQ(small.span_count(), 2u);
  EXPECT_EQ(small.dropped_spans(), 2u);
}

TEST_F(TraceContextTest, UninstalledContextRecordsNothing) {
  context_.Uninstall();
  // Instrumentation sites guard on the installed context; emulate both
  // forms.
  if (auto* tr = instrument::Spans()) {
    tr->BeginSpan("never");
  }
  DCDO_INSTRUMENT(EndpointOpened(1, 2, 3));
  context_.Install();  // restore for the fixture dtor
  EXPECT_EQ(ctx_.span_count(), 0u);
}

TEST_F(TraceContextTest, SpanScopeRaii) {
  {
    SpanScope outer("outer", {.category = "test"});
    EXPECT_TRUE(static_cast<bool>(outer));
    outer.Annotate("key", "value");
    EXPECT_EQ(ctx_.CurrentScope(), outer.id());
    {
      SpanScope inner("inner");
      EXPECT_EQ(ctx_.CurrentScope(), inner.id());
    }
    EXPECT_EQ(ctx_.CurrentScope(), outer.id());
  }
  EXPECT_EQ(ctx_.CurrentScope(), 0u);

  auto spans = ctx_.SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_FALSE(spans[0].open());
  EXPECT_FALSE(spans[1].open());
  ASSERT_EQ(spans[0].notes.size(), 1u);
  EXPECT_EQ(spans[0].notes[0].second, "value");
}

TEST(SpanScopeNoContextTest, IsANoOp) {
  ASSERT_EQ(Context::Current(), nullptr);
  SpanScope scope("orphan");
  EXPECT_FALSE(static_cast<bool>(scope));
  EXPECT_EQ(scope.id(), 0u);
  scope.Annotate("k", "v");  // must not crash
}

}  // namespace
}  // namespace dcdo::trace
