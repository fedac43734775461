// Deterministic whole-substrate churn scenarios for the Fom equivalence
// suite (tests/runtime) and the mixed-plane overload test (tests/rpc).
//
// Each scenario drives a heavy EXPERIMENTS.md workload to quiescence and
// folds everything observable into a RunSummary: the SimTime event-order
// digest, total events fired, the final clock, and a final-state
// fingerprint. Two runs are "the same execution" iff their summaries are
// equal — the contract the suites assert across runs and across the
// continuation-chain → Fom conversion (DESIGN.md §16).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/manager.h"
#include "instrument/context.h"
#include "naming/binding_cache.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo::testing {

inline std::uint64_t Fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

struct RunSummary {
  std::uint64_t digest = 0;
  std::uint64_t fired = 0;
  std::int64_t end_ns = 0;
  std::uint64_t state_hash = 0;
  bool checker_clean = true;
  std::string diagnostics;

  bool operator==(const RunSummary& other) const {
    return digest == other.digest && fired == other.fired &&
           end_ns == other.end_ns && state_hash == other.state_hash;
  }
};

inline void FinishSummary(Testbed& testbed, RunSummary& summary) {
  summary.digest = testbed.simulation().DeterminismDigest();
  summary.fired = testbed.simulation().events_fired();
  summary.end_ns = testbed.simulation().Now().nanos();
  check::Checker* checker = testbed.checker();
  ASSERT_NE(checker, nullptr);
  summary.checker_clean = checker->diagnostics().Clean();
  if (!summary.checker_clean) {
    summary.diagnostics = checker->diagnostics().DumpText();
  }
}

// ===== E13: fetch-churn (concurrent creations, evolutions, migrations) =====

inline RunSummary RunFetchChurn(int fetch_concurrency) {
  ObjectId::ResetCounterForTest();
  std::mt19937 rng(1999);

  Testbed::Options options;
  options.cost_model.fetch_concurrency = fetch_concurrency;
  options.cost_model.component_cache_capacity = 4;
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);

  DcdoManager manager("pardet", testbed.host(0), &testbed.transport(),
                      &testbed.agent(), &testbed.registry(),
                      MakeMultiVersionIncreasing());

  std::vector<ImplementationComponent> pool;
  const char* fns[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 6; ++i) {
    pool.push_back(testing::MakeEchoComponent(
        testbed.registry(), "pd" + std::to_string(i),
        {fns[i % 3], fns[(i + 1) % 3]}, 256 * 1024));
    EXPECT_TRUE(manager.PublishComponent(pool[i]).ok());
  }

  VersionId root = *manager.CreateRootVersion();
  {
    DfmDescriptor* d = *manager.MutableDescriptor(root);
    EXPECT_TRUE(d->IncorporateComponent(pool[0]).ok());
    EXPECT_TRUE(d->EnableFunction("alpha", pool[0].id).ok());
    EXPECT_TRUE(d->EnableFunction("beta", pool[0].id).ok());
    EXPECT_TRUE(manager.MarkInstantiable(root).ok());
    EXPECT_TRUE(manager.SetCurrentVersion(root).ok());
  }
  std::vector<VersionId> instantiable{root};
  for (int v = 0; v < 3; ++v) {
    VersionId derived = *manager.DeriveVersion(instantiable.back());
    DfmDescriptor* d = *manager.MutableDescriptor(derived);
    for (int i = 0; i < 3; ++i) {
      const ImplementationComponent& comp = pool[(v + i) % pool.size()];
      (void)d->IncorporateComponent(comp);
      for (const FunctionImplDescriptor& fn : comp.functions) {
        (void)d->SwitchImplementation(fn.function.name, comp.id);
      }
    }
    EXPECT_TRUE(manager.MarkInstantiable(derived).ok());
    instantiable.push_back(derived);
  }

  std::vector<ObjectId> instances;
  {
    std::vector<std::optional<Result<ObjectId>>> created(4);
    for (int i = 0; i < 4; ++i) {
      manager.CreateInstance(testbed.host(1 + i / 2),
                             [&created, i](Result<ObjectId> r) {
                               created[i] = r;
                             });
    }
    testbed.simulation().Run();
    for (auto& result : created) {
      EXPECT_TRUE(result.has_value() && (*result).ok());
      if (result.has_value() && (*result).ok()) instances.push_back(**result);
    }
  }

  std::uniform_int_distribution<int> op_dist(0, 2);
  std::uniform_int_distribution<std::size_t> version_pick(
      0, instantiable.size() - 1);
  std::uniform_int_distribution<std::size_t> host_pick(1, 3);
  for (int round = 0; round < 12; ++round) {
    int pending = 0;
    for (const ObjectId& instance : instances) {
      switch (op_dist(rng)) {
        case 0:
          ++pending;
          manager.EvolveInstanceTo(instance, instantiable[version_pick(rng)],
                                   [&pending](Status) { --pending; });
          break;
        case 1:
          ++pending;
          manager.MigrateInstance(instance, testbed.host(host_pick(rng)),
                                  [&pending](Status) { --pending; });
          break;
        case 2: {
          Dcdo* object = manager.FindInstance(instance);
          EXPECT_NE(object, nullptr);
          if (object != nullptr) (void)object->Call(fns[round % 3], ByteBuffer{});
          break;
        }
      }
    }
    testbed.simulation().RunWhile([&] { return pending > 0; });
    testbed.simulation().Run();
  }

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  for (const ObjectId& instance : instances) {
    Dcdo* object = manager.FindInstance(instance);
    EXPECT_NE(object, nullptr);
    if (object == nullptr) continue;
    for (std::uint32_t part : object->version().parts()) {
      summary.state_hash = Fnv(summary.state_hash, part);
    }
    summary.state_hash = Fnv(summary.state_hash, object->host().node());
    summary.state_hash = Fnv(
        summary.state_hash,
        object->mapper().state().ValidateComplete().ok() ? 1u : 0u);
  }
  FinishSummary(testbed, summary);
  return summary;
}

// ===== E14: rebind storm over the leased directory ==========================

inline RunSummary RunRebindStorm() {
  ObjectId::ResetCounterForTest();

  Testbed::Options options;
  options.host_count = 8;
  options.cost_model.binding_lease_duration = sim::SimDuration::Seconds(60.0);
  Testbed testbed(options);
  testbed.simulation().EnableDeterminismDigest(true);
  BindingAgent& agent = testbed.agent();

  constexpr int kHolders = 24;
  constexpr int kTargets = 4;
  // Real (checkable) activations: every bound address is a live registered
  // endpoint, and a migration retires the old activation before the new one
  // is served — the binding-coherence invariant watches all of it.
  auto address_of = [](int t, std::uint64_t epoch) {
    return ObjectAddress{
        static_cast<sim::NodeId>(1 + (static_cast<std::uint64_t>(t) + epoch) % 8),
        static_cast<sim::ProcessId>(100 + t), epoch};
  };
  std::vector<ObjectId> targets;
  auto serve = [&](int t, std::uint64_t epoch) {
    const ObjectAddress address = address_of(t, epoch);
    testbed.transport().RegisterEndpoint(
        address.node, address.pid, address.epoch,
        [](const rpc::MethodInvocation& inv, rpc::ReplyFn reply) {
          reply(rpc::MethodResult::Ok(
              ByteBuffer::FromString(std::string(inv.method_name()))));
        });
    agent.Bind(targets[static_cast<std::size_t>(t)], address);
  };
  for (int t = 0; t < kTargets; ++t) {
    targets.push_back(ObjectId::Next(domains::kInstance));
    serve(t, 1);
  }
  std::vector<std::unique_ptr<BindingCache>> caches;
  for (int i = 0; i < kHolders; ++i) {
    caches.push_back(std::make_unique<BindingCache>(
        &agent, static_cast<sim::NodeId>(1 + i % options.host_count)));
    EXPECT_TRUE(caches.back()->RefreshFromAgent(targets[i % kTargets]).ok());
  }

  // Three storms: every target migrates, the agent fans the fresh bindings
  // out to all leaseholders, the run settles, repeat.
  for (std::uint64_t epoch = 2; epoch <= 4; ++epoch) {
    for (int t = 0; t < kTargets; ++t) {
      const ObjectAddress old = address_of(t, epoch - 1);
      testbed.transport().UnregisterEndpoint(old.node, old.pid);
      serve(t, epoch);
    }
    testbed.RunAll();
  }

  RunSummary summary;
  summary.state_hash = 1469598103934665603ull;
  for (int i = 0; i < kHolders; ++i) {
    auto cached = caches[static_cast<std::size_t>(i)]->CachedAddress(
        targets[i % kTargets]);
    summary.state_hash = Fnv(summary.state_hash, cached.has_value() ? 1u : 0u);
    if (cached.has_value()) {
      summary.state_hash = Fnv(summary.state_hash, cached->node);
      summary.state_hash = Fnv(summary.state_hash, cached->pid);
      summary.state_hash = Fnv(summary.state_hash, cached->epoch);
    }
  }
  summary.state_hash = Fnv(summary.state_hash, agent.invalidations_delivered());
  summary.state_hash = Fnv(summary.state_hash, agent.lookups_served());
  FinishSummary(testbed, summary);
  return summary;
}

}  // namespace dcdo::testing
