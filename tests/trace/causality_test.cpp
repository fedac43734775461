// End-to-end causal-trace properties over the real rpc stack: parents
// precede children in sim time, every retry attempt of one logical call
// hangs off the same root, and the dedup/timeout markers land where the
// protocol says they should.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "rpc/client.h"
#include "runtime/testbed.h"
#include "trace/trace_context.h"

namespace dcdo::trace {
namespace {

using rpc::MethodInvocation;
using rpc::MethodResult;
using rpc::ReplyFn;

// A raw substrate (no Testbed) with a tracer installed over it.
class CausalityTest : public ::testing::Test {
 protected:
  CausalityTest()
      : network_(&simulation_, sim::CostModel{}),
        transport_(&network_),
        client_(&transport_, &agent_, /*node=*/1) {
    ctx_.AttachSimulation(&simulation_);
    ctx_.Install();
    network_.AddNode(1);
    network_.AddNode(2);
    network_.AddNode(3);
    target_ = ObjectId::Next(domains::kInstance);
  }
  ~CausalityTest() override { ctx_.Uninstall(); }

  void SetUp() override { ASSERT_EQ(ActiveContext(), &ctx_); }

  std::vector<Span> SpansNamed(const std::vector<Span>& spans,
                               std::string_view name) {
    std::vector<Span> out;
    for (const Span& span : spans) {
      if (span.name == name) out.push_back(span);
    }
    return out;
  }

  // Every non-root span's parent must exist and must have begun at or
  // before the child (causes precede effects on the sim clock).
  void AssertParentsPrecedeChildren(const std::vector<Span>& spans) {
    for (const Span& span : spans) {
      if (span.parent == 0) continue;
      ASSERT_GE(span.parent, 1u);
      ASSERT_LE(span.parent, spans.size());
      const Span& parent = spans[span.parent - 1];
      EXPECT_LE(parent.sim_begin_ns, span.sim_begin_ns)
          << parent.name << " -> " << span.name;
      EXPECT_EQ(span.root, parent.root)
          << span.name << " root disagrees with its parent's";
    }
  }

  TraceContext ctx_;
  sim::Simulation simulation_;
  sim::SimNetwork network_;
  rpc::RpcTransport transport_;
  BindingAgent agent_;
  rpc::RpcClient client_;
  ObjectId target_;
};

// The stale-binding recovery sequence: 3 attempts against a dead address,
// a rebind, then success — all of it one causal tree.
TEST_F(CausalityTest, RetriesAndRebindShareOneRoot) {
  transport_.RegisterEndpoint(
      2, 10, 1, [](const MethodInvocation& inv, ReplyFn reply) {
        reply(MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  ASSERT_TRUE(client_.InvokeBlocking(target_, "warmup").ok());

  transport_.UnregisterEndpoint(2, 10);
  transport_.RegisterEndpoint(
      3, 20, 2, [](const MethodInvocation& inv, ReplyFn reply) {
        reply(MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  agent_.Bind(target_, ObjectAddress{3, 20, 2});
  ASSERT_TRUE(client_.InvokeBlocking(target_, "afterEvolve").ok());

  std::vector<Span> spans = ctx_.SnapshotSpans();
  AssertParentsPrecedeChildren(spans);

  // Two logical calls -> two rpc.call roots.
  std::vector<Span> calls = SpansNamed(spans, "rpc.call");
  ASSERT_EQ(calls.size(), 2u);
  const Span& recovery = calls[1];
  EXPECT_EQ(recovery.root, recovery.id);  // a causal root

  // Attempts 1..3 hit the stale binding, attempt 4 the fresh one; all five
  // spans of the second call (4 attempts + rebind) share the call's root.
  std::map<SpanId, int> attempts_by_root;
  for (const Span& span : SpansNamed(spans, "rpc.attempt")) {
    ++attempts_by_root[span.root];
    EXPECT_GT(span.attempt, 0) << "attempts carry their retry index";
  }
  EXPECT_EQ(attempts_by_root[calls[0].root], 1);  // warmup: one attempt
  EXPECT_EQ(attempts_by_root[recovery.root], 4);  // 1 + 2 retries + rebound

  std::vector<Span> timeouts = SpansNamed(spans, "rpc.timeout");
  ASSERT_EQ(timeouts.size(), 3u);
  for (const Span& mark : timeouts) {
    EXPECT_EQ(mark.kind, Span::Kind::kInstant);
    EXPECT_EQ(mark.root, recovery.root);
  }
  ASSERT_EQ(SpansNamed(spans, "rpc.rebind").size(), 1u);
  EXPECT_EQ(SpansNamed(spans, "rpc.rebind")[0].root, recovery.root);

  // The registry saw the same story the spans tell.
  EXPECT_EQ(ctx_.metrics().CounterValue("rpc.timeouts"), 3u);
  EXPECT_EQ(ctx_.metrics().CounterValue("rpc.rebinds"), 1u);
  EXPECT_EQ(ctx_.metrics().CounterValue("rpc.calls_started"), 2u);
}

// The dedup replay scenario, traced: the rpc.dedup marker is causally
// chained to the retry's send (same root as the whole call), and both
// attempts' server-side activity carries the one call_id.
TEST_F(CausalityTest, DedupReplayIsCausallyChainedToTheRetry) {
  transport_.RegisterEndpoint(
      2, 10, 1, [&](const MethodInvocation&, ReplyFn reply) {
        simulation_.Schedule(sim::SimDuration::Seconds(2.0),
                             [reply = std::move(reply)]() mutable {
                               reply(MethodResult::Ok(
                                   ByteBuffer::FromString("once")));
                             });
      });
  agent_.Bind(target_, ObjectAddress{2, 10, 1});
  simulation_.Schedule(sim::SimDuration::Seconds(1.0),
                       [&]() { network_.SetPartitioned(1, 2, true); });
  simulation_.Schedule(sim::SimDuration::Seconds(3.0),
                       [&]() { network_.SetPartitioned(1, 2, false); });
  ASSERT_TRUE(client_.InvokeBlocking(target_, "effectfulOnce").ok());

  std::vector<Span> spans = ctx_.SnapshotSpans();
  AssertParentsPrecedeChildren(spans);

  std::vector<Span> calls = SpansNamed(spans, "rpc.call");
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_NE(calls[0].call_id, 0u);

  // One dispatch (the body ran once), one dedup marker (the replay), both
  // keyed by the call's id and rooted in the call.
  std::vector<Span> dispatches = SpansNamed(spans, "rpc.dispatch");
  ASSERT_EQ(dispatches.size(), 1u);
  EXPECT_EQ(dispatches[0].call_id, calls[0].call_id);
  EXPECT_EQ(dispatches[0].root, calls[0].root);

  std::vector<Span> dedups = SpansNamed(spans, "rpc.dedup");
  ASSERT_EQ(dedups.size(), 1u);
  EXPECT_EQ(dedups[0].call_id, calls[0].call_id);
  EXPECT_EQ(dedups[0].root, calls[0].root);
  // The marker hangs off the RETRY's send span, which began at the 10 s
  // timeout — later than the original attempt.
  ASSERT_GE(dedups[0].parent, 1u);
  const Span& retry_send = spans[dedups[0].parent - 1];
  EXPECT_EQ(retry_send.name, "rpc.send");
  EXPECT_GE(retry_send.sim_begin_ns, 10'000'000'000);

  EXPECT_EQ(ctx_.metrics().CounterValue("rpc.dedup_hits"), 1u);
}

// Testbed-level integration: Options::tracing installs a context over the
// whole substrate and DumpTrace exports a loadable file with the network
// totals snapshotted in.
TEST(TestbedTracingTest, DumpTraceExportsSpansAndMetrics) {
  std::string path = ::testing::TempDir() + "/dcdo_testbed_trace.json";
  {
    Testbed::Options options;
    options.tracing = true;
    Testbed bed(options);
    ASSERT_NE(bed.tracer(), nullptr);

    bed.transport().RegisterEndpoint(
        2, 10, 1, [](const MethodInvocation& inv, ReplyFn reply) {
          reply(MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
    ObjectId id = ObjectId::Next(domains::kInstance);
    bed.agent().Bind(id, ObjectAddress{2, 10, 1});
    auto client = bed.MakeClient(0);
    ASSERT_TRUE(client->InvokeBlocking(id, "traced").ok());
    EXPECT_GT(bed.tracer()->span_count(), 0u);
    ASSERT_TRUE(bed.DumpTrace(path).ok());
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  EXPECT_NE(contents.str().find("\"rpc.call\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"net.messages_sent\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"rpc.invocations_delivered\": 1"),
            std::string::npos);
  std::remove(path.c_str());
}

// Hosts count their own component-cache evictions; DumpTrace exports the sum.
TEST(TestbedTracingTest, DumpTraceExportsHostCacheEvictions) {
  std::string path = ::testing::TempDir() + "/dcdo_testbed_evictions.json";
  {
    Testbed::Options options;
    options.tracing = true;
    options.cost_model.component_cache_capacity = 1;
    Testbed bed(options);
    bed.host(0)->CacheComponent(ObjectId::Next(domains::kComponent), 100);
    bed.host(0)->CacheComponent(ObjectId::Next(domains::kComponent), 200);
    ASSERT_TRUE(bed.DumpTrace(path).ok());
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream contents;
  contents << file.rdbuf();
  const std::string key = "\"host.component_cache_evictions\": ";
  std::size_t at = contents.str().find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stoull(contents.str().substr(at + key.size())), 1u);
  std::remove(path.c_str());
}

// Without the option, the testbed stays untraced and DumpTrace refuses.
TEST(TestbedTracingTest, TracingIsOptIn) {
  Testbed bed;
  EXPECT_EQ(bed.tracer(), nullptr);
  EXPECT_FALSE(bed.DumpTrace("/tmp/never-written.json").ok());
}

}  // namespace
}  // namespace dcdo::trace
