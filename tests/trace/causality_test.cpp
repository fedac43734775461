// End-to-end causal-trace properties over the real rpc stack: parents
// precede children in sim time, every retry attempt of one logical call
// hangs off the same root, and the dedup/timeout markers land where the
// protocol says they should.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "component/fetcher.h"
#include "component/ico.h"
#include "core/dcdo.h"
#include "core/ico_directory.h"
#include "instrument/context.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

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
    context_.AttachSimulation(&simulation_);
    context_.Install();
    network_.AddNode(1);
    network_.AddNode(2);
    network_.AddNode(3);
    target_ = ObjectId::Next(domains::kInstance);
  }
  ~CausalityTest() override { context_.Uninstall(); }

  void SetUp() override { ASSERT_EQ(instrument::Spans(), &ctx_); }

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

  instrument::Context context_{{.tracing = true}};
  SpanRecorder& ctx_ = *context_.spans();
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

  // The client's own counters tell the same story the spans tell.
  EXPECT_EQ(client_.timeouts(), 3u);
  EXPECT_EQ(client_.rebinds(), 1u);
  EXPECT_EQ(client_.calls_started(), 2u);
  EXPECT_EQ(SpansNamed(spans, "rpc.call").size(), client_.calls_started());
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

  EXPECT_EQ(transport_.dedup_hits(), 1u);
}

// Testbed-level integration: Options::tracing installs a context over the
// whole substrate and DumpTrace exports a loadable file with the member
// totals of what the testbed owns (network, transport, binding agent)
// copied in.
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
  for (const char* counter :
       {"\"rpc.invocations_delivered\": 1", "\"rpc.dedup_hits\": 0",
        "\"rpc.epoch_rejections\": 0", "\"rpc.session_stale\": 0",
        "\"naming.lookups_served\": 1", "\"naming.leases_granted\": 0",
        "\"naming.invalidations_sent\": 0",
        "\"naming.invalidations_delivered\": 0"}) {
    EXPECT_NE(contents.str().find(counter), std::string::npos) << counter;
  }
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

// The configuration plane, the endpoint lifecycle and binding refreshes
// reach the trace as instants, one per typed fact.
TEST(TestbedTracingTest, ExportCarriesTypedFactInstants) {
  std::string path = ::testing::TempDir() + "/dcdo_testbed_facts.json";
  {
    Testbed::Options options;
    options.tracing = true;
    Testbed bed(options);
    auto comp_a = testing::MakeEchoComponent(bed.registry(), "facts-a", {"f"});
    auto comp_b = testing::MakeEchoComponent(bed.registry(), "facts-b", {"f"});
    IcoDirectory icos;
    ComponentFetcher fetcher(&icos);
    auto object = std::make_unique<Dcdo>(
        "obj", bed.host(1), &bed.transport(), &bed.agent(), &bed.registry(),
        &icos, VersionId::Root(), &fetcher);  // opens its endpoint
    for (const ImplementationComponent& comp : {comp_a, comp_b}) {
      bed.host(1)->CacheComponent(comp.id, comp.code_bytes);
      ASSERT_TRUE(object->IncorporateCached(comp).ok());
    }
    ASSERT_TRUE(object->EnableFunction("f", comp_a.id).ok());
    ASSERT_TRUE(object->SwitchImplementation("f", comp_b.id).ok());
    ASSERT_TRUE(object->RemoveComponent(comp_a.id).ok());
    auto client = bed.MakeClient(0);
    ASSERT_TRUE(client->cache().RefreshFromAgent(object->id()).ok());
    object.reset();  // closes its endpoint
    ASSERT_TRUE(bed.DumpTrace(path).ok());
  }
  std::ifstream file(path);
  std::stringstream contents;
  contents << file.rdbuf();
  const std::string json = contents.str();
  for (const char* instant :
       {"\"name\": \"dfm.swap\", \"cat\": \"dfm\", \"ph\": \"i\"",
        "\"name\": \"dfm.remove\", \"cat\": \"dfm\", \"ph\": \"i\"",
        "\"name\": \"rpc.endpoint_open\", \"cat\": \"transport\", "
        "\"ph\": \"i\"",
        "\"name\": \"rpc.endpoint_close\", \"cat\": \"transport\", "
        "\"ph\": \"i\"",
        "\"name\": \"naming.refresh\", \"cat\": \"naming\", \"ph\": \"i\""}) {
    EXPECT_NE(json.find(instant), std::string::npos) << instant;
  }
  EXPECT_NE(json.find("\"forced\": \"false\""), std::string::npos);
  std::remove(path.c_str());
}

// An evolution's Fom phase spans name their phase and nest, in order, under
// the one evolve span that roots the operation.
TEST(TestbedTracingTest, EvolvePhasesAreNamedAndNestUnderTheEvolveSpan) {
  Testbed::Options options;
  options.tracing = true;
  Testbed bed(options);
  auto comp_a = testing::MakeEchoComponent(bed.registry(), "phase-a", {"f"});
  auto comp_b = testing::MakeEchoComponent(bed.registry(), "phase-b", {"f"});
  ImplementationComponentObject ico_b(bed.host(0), &bed.transport(),
                                      &bed.agent(), comp_b);
  IcoDirectory icos;
  icos.Register(&ico_b);
  ComponentFetcher fetcher(&icos);
  Dcdo object("obj", bed.host(1), &bed.transport(), &bed.agent(),
              &bed.registry(), &icos, VersionId::Root(), &fetcher);
  bed.host(1)->CacheComponent(comp_a.id, comp_a.code_bytes);
  ASSERT_TRUE(object.IncorporateCached(comp_a).ok());
  ASSERT_TRUE(object.EnableFunction("f", comp_a.id).ok());

  // B replaces A: acquire B, then commit the target, dropping A.
  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(comp_b).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_b.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());
  std::optional<Status> evolved;
  object.EvolveTo(target, Dcdo::RemovalPolicy::Delay(),
                  [&](Status status) { evolved = status; });
  bed.simulation().RunWhile([&] { return !evolved.has_value(); });
  ASSERT_TRUE(evolved.has_value() && evolved->ok());

  std::vector<Span> spans = bed.tracer()->SnapshotSpans();
  std::vector<Span> evolves;
  std::vector<Span> phases;
  for (const Span& span : spans) {
    if (span.name == "evolve") evolves.push_back(span);
    if (span.name == "dcdo.evolve") phases.push_back(span);
  }
  ASSERT_EQ(evolves.size(), 1u);
  EXPECT_EQ(evolves[0].root, evolves[0].id);
  std::vector<std::string> names;
  for (const Span& phase : phases) {
    EXPECT_EQ(phase.parent, evolves[0].id);
    EXPECT_EQ(phase.root, evolves[0].id);
    EXPECT_FALSE(phase.open());
    ASSERT_EQ(phase.notes.size(), 1u);
    EXPECT_EQ(phase.notes[0].first, "phase");
    names.push_back(phase.notes[0].second);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"acquire", "commit"}));
  // The commit reports the one component it dropped.
  std::vector<std::string> removed;
  for (const Span& span : spans) {
    if (span.name != "dfm.remove") continue;
    for (const auto& [key, value] : span.notes) {
      if (key == "component") removed.push_back(value);
    }
  }
  EXPECT_EQ(removed, std::vector<std::string>{comp_a.id.ToString()});
}

// A component stream nests under the evolve span that asked for it. A
// second evolution on the same host joins the open stream and rides it:
// one net.stream, a child of the first evolve.
TEST(TestbedTracingTest, ComponentStreamsNestUnderTheirEvolveSpan) {
  Testbed::Options options;
  options.tracing = true;
  Testbed bed(options);
  auto comp_a = testing::MakeEchoComponent(bed.registry(), "stream-a", {"f"});
  auto comp_b = testing::MakeEchoComponent(bed.registry(), "stream-b", {"g"});
  ImplementationComponentObject ico_b(bed.host(0), &bed.transport(),
                                      &bed.agent(), comp_b);
  IcoDirectory icos;
  icos.Register(&ico_b);
  ComponentFetcher fetcher(&icos);
  bed.host(1)->CacheComponent(comp_a.id, comp_a.code_bytes);
  std::vector<std::unique_ptr<Dcdo>> objects;
  for (const char* name : {"leader", "follower"}) {
    objects.push_back(std::make_unique<Dcdo>(
        name, bed.host(1), &bed.transport(), &bed.agent(), &bed.registry(),
        &icos, VersionId::Root(), &fetcher));
    ASSERT_TRUE(objects.back()->IncorporateCached(comp_a).ok());
    ASSERT_TRUE(objects.back()->EnableFunction("f", comp_a.id).ok());
  }

  DfmDescriptor target(VersionId::Root().Child(1));
  ASSERT_TRUE(target.IncorporateComponent(comp_a).ok());
  ASSERT_TRUE(target.EnableFunction("f", comp_a.id).ok());
  ASSERT_TRUE(target.IncorporateComponent(comp_b).ok());
  ASSERT_TRUE(target.EnableFunction("g", comp_b.id).ok());
  ASSERT_TRUE(target.MarkInstantiable().ok());
  int evolved = 0;
  for (const auto& object : objects) {
    object->EvolveTo(target, Dcdo::RemovalPolicy::Error(), [&](Status status) {
      EXPECT_TRUE(status.ok()) << status;
      ++evolved;
    });
  }
  bed.simulation().RunWhile([&] { return evolved < 2; });
  ASSERT_EQ(evolved, 2);

  std::map<std::string, Span> evolves;  // by object name
  std::vector<Span> streams;
  for (const Span& span : bed.tracer()->SnapshotSpans()) {
    if (span.name == "net.stream") streams.push_back(span);
    if (span.name != "evolve") continue;
    for (const auto& [key, value] : span.notes) {
      if (key == "object") evolves[value] = span;
    }
  }
  ASSERT_EQ(evolves.size(), 2u);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].parent, evolves["leader"].id);
  EXPECT_EQ(streams[0].root, evolves["leader"].id);
}

// Without the option, the testbed stays untraced and DumpTrace refuses.
TEST(TestbedTracingTest, TracingIsOptIn) {
  Testbed bed;
  EXPECT_EQ(bed.tracer(), nullptr);
  EXPECT_FALSE(bed.DumpTrace("/tmp/never-written.json").ok());
}

}  // namespace
}  // namespace dcdo::trace
