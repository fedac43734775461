// The E6 evolution timeline, regenerated as a causal trace.
//
// Runs the paper's headline comparison — on-the-fly DCDO evolution vs. the
// stale-binding penalty of a replaced activation — on a traced testbed and
// exports the whole causal history as Chrome trace-event JSON. Load the
// file in chrome://tracing or https://ui.perfetto.dev: the ~31 s
// stale-binding recovery reads directly off the timeline as
//
//   rpc.call ── rpc.attempt[1] ─ rpc.timeout ─ rpc.attempt[2] ─ ... ─
//              rpc.rebind ─ rpc.attempt (rebound) ─ rpc.dispatch ─ reply
//
// while the DCDO evolution shows up as a sub-second `evolve` span, its Fom
// phases (acquire, commit) nested beneath it, with the service's dfm.call
// traffic flowing uninterrupted around it.
//
//   ./build/examples/traced_evolution [output.json]
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "core/manager.h"
#include "rpc/client.h"
#include "runtime/testbed.h"

using namespace dcdo;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace_evolution.json";

  Testbed::Options options;
  options.tracing = true;
  Testbed testbed(options);

  // --- Act 1: a DCDO service evolves on the fly (E6, DCDO side) ---------
  testbed.registry().Register(
      "pricing-v1/price", ImplementationType::Portable(),
      [](CallContext&, const ByteBuffer& args) {
        return Result<ByteBuffer>(
            ByteBuffer::FromString("surcharged:" + args.ToString()));
      });
  testbed.registry().Register(
      "pricing-v2/price", ImplementationType::Portable(),
      [](CallContext&, const ByteBuffer& args) {
        return Result<ByteBuffer>(
            ByteBuffer::FromString("discounted:" + args.ToString()));
      });
  auto comp_v1 = ComponentBuilder("pricing-v1")
                     .SetCodeBytes(550'000)
                     .AddFunction("price", "b(b)", "pricing-v1/price")
                     .Build();
  auto comp_v2 = ComponentBuilder("pricing-v2")
                     .SetCodeBytes(550'000)
                     .AddFunction("price", "b(b)", "pricing-v2/price")
                     .Build();
  Check(comp_v1.status(), "build component v1");
  Check(comp_v2.status(), "build component v2");

  DcdoManager manager("pricing", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeSingleVersionExplicit());
  Check(manager.PublishComponent(*comp_v1).status(), "publish v1");
  Check(manager.PublishComponent(*comp_v2).status(), "publish v2");

  VersionId v1 = *manager.CreateRootVersion();
  DfmDescriptor* d1 = *manager.MutableDescriptor(v1);
  Check(d1->IncorporateComponent(*comp_v1), "incorporate v1");
  Check(d1->EnableFunction("price", comp_v1->id), "enable price");
  Check(manager.MarkInstantiable(v1), "freeze v1");
  Check(manager.SetCurrentVersion(v1), "designate v1");

  ObjectId service;
  bool created = false;
  manager.CreateInstance(testbed.host(2), [&](Result<ObjectId> result) {
    Check(result.status(), "create service");
    service = *result;
    created = true;
  });
  testbed.simulation().RunWhile([&] { return !created; });

  auto client = testbed.MakeClient(9);
  Check(client->InvokeBlocking(service, "price", ByteBuffer::FromString("1000"))
            .status(),
        "pre-evolution call");

  VersionId v11 = *manager.DeriveVersion(v1);
  DfmDescriptor* d11 = *manager.MutableDescriptor(v11);
  Check(d11->IncorporateComponent(*comp_v2), "incorporate v2");
  Check(d11->SwitchImplementation("price", comp_v2->id), "switch price");
  Check(manager.MarkInstantiable(v11), "freeze v1.1");
  Check(manager.SetCurrentVersion(v11), "designate v1.1");

  sim::SimTime evolve_start = testbed.simulation().Now();
  bool evolved = false;
  manager.UpdateInstance(service, [&](Status status) {
    Check(status, "evolve service");
    evolved = true;
  });
  testbed.simulation().RunWhile([&] { return !evolved; });
  double evolve_seconds = (testbed.simulation().Now() - evolve_start).ToSeconds();

  Check(client->InvokeBlocking(service, "price", ByteBuffer::FromString("1000"))
            .status(),
        "post-evolution call");

  // --- Act 2: the stale-binding recovery (E6, monolithic side) ----------
  // A plain activation is replaced behind the client's back; the retries,
  // the timeouts, and the rebind all land in the same causal tree.
  ObjectId legacy = ObjectId::Next(domains::kInstance);
  testbed.transport().RegisterEndpoint(
      5, 50, 1, [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
        reply(rpc::MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  testbed.agent().Bind(legacy, ObjectAddress{5, 50, 1});
  Check(client->InvokeBlocking(legacy, "warmup").status(), "legacy warmup");

  testbed.transport().UnregisterEndpoint(5, 50);  // the executable swap
  testbed.transport().RegisterEndpoint(
      6, 60, 2, [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
        reply(rpc::MethodResult::Ok(
            ByteBuffer::FromString(std::string(inv.method_name()))));
      });
  testbed.agent().Bind(legacy, ObjectAddress{6, 60, 2});

  sim::SimTime stale_start = testbed.simulation().Now();
  Check(client->InvokeBlocking(legacy, "afterSwap").status(),
        "stale-binding recovery call");
  double stale_seconds = (testbed.simulation().Now() - stale_start).ToSeconds();

  Check(testbed.DumpTrace(out_path), "export trace");

  std::printf("traced_evolution: DCDO evolution took %s; the stale-binding\n"
              "recovery took %s (%llu timeouts, %llu rebind)\n",
              HumanSeconds(evolve_seconds).c_str(),
              HumanSeconds(stale_seconds).c_str(),
              static_cast<unsigned long long>(client->timeouts()),
              static_cast<unsigned long long>(client->rebinds()));
  std::printf("traced_evolution: %zu spans exported to %s\n",
              testbed.tracer()->span_count(), out_path.c_str());
  return 0;
}
