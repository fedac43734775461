// ComponentFetcher: the component acquisition pipeline.
//
// One pipeline serves every concurrency. At fetch_concurrency 1 (one open
// stream per destination host) it must keep the paper's ~10 s DCDO
// creation figure, re-asserted here. Above 1 it must overlap transfers
// under the fair-shared link model and coalesce co-hosted requests for the
// same image into one stream. At every concurrency a failed fetch settles
// with an error naming the exact component, or is skipped by a best-effort
// caller — never a hang.
#include "component/fetcher.h"

#include <gtest/gtest.h>

#include "core/manager.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class FetcherTest : public ::testing::Test {
 protected:
  static Testbed::Options Parallel(int fetch_concurrency) {
    Testbed::Options options;
    options.cost_model.fetch_concurrency = fetch_concurrency;
    return options;
  }

  // A manager whose current version incorporates `components` echo
  // components (one function each), published on host 0.
  static std::unique_ptr<DcdoManager> MakeManager(
      Testbed& testbed, const std::string& name, std::size_t components,
      std::vector<ImplementationComponent>* out_comps = nullptr) {
    auto manager = std::make_unique<DcdoManager>(
        name, testbed.host(0), &testbed.transport(), &testbed.agent(),
        &testbed.registry(), MakeMultiVersionIncreasing());
    std::vector<ImplementationComponent> comps;
    for (std::size_t i = 0; i < components; ++i) {
      comps.push_back(testing::MakeEchoComponent(
          testbed.registry(), name + "-comp" + std::to_string(i),
          {"fn" + std::to_string(i)}));
      EXPECT_TRUE(manager->PublishComponent(comps.back()).ok());
    }
    VersionId v1 = *manager->CreateRootVersion();
    DfmDescriptor* d1 = *manager->MutableDescriptor(v1);
    for (std::size_t i = 0; i < components; ++i) {
      EXPECT_TRUE(d1->IncorporateComponent(comps[i]).ok());
      EXPECT_TRUE(
          d1->EnableFunction("fn" + std::to_string(i), comps[i].id).ok());
    }
    EXPECT_TRUE(manager->MarkInstantiable(v1).ok());
    EXPECT_TRUE(manager->SetCurrentVersion(v1).ok());
    if (out_comps != nullptr) *out_comps = std::move(comps);
    return manager;
  }

  static Result<ObjectId> CreateBlocking(Testbed& testbed,
                                         DcdoManager& manager,
                                         sim::SimHost* host) {
    std::optional<Result<ObjectId>> out;
    manager.CreateInstance(host, [&](Result<ObjectId> r) { out = r; });
    testbed.simulation().RunWhile([&] { return !out.has_value(); });
    if (!out.has_value()) {
      return InternalError("simulation went idle before creation finished");
    }
    return *out;
  }
};

// Two instances of one type activating on the same host at the same time:
// every component image crosses the wire exactly once — the second
// instance's requests ride the first's open streams.
TEST_F(FetcherTest, SingleFlightSharesOneStreamAcrossInstances) {
  Testbed testbed{Parallel(8)};
  std::vector<ImplementationComponent> comps;
  auto manager = MakeManager(testbed, "shared", 4, &comps);

  std::optional<Result<ObjectId>> first, second;
  manager->CreateInstance(testbed.host(1),
                          [&](Result<ObjectId> r) { first = r; });
  manager->CreateInstance(testbed.host(1),
                          [&](Result<ObjectId> r) { second = r; });
  testbed.simulation().RunWhile(
      [&] { return !first.has_value() || !second.has_value(); });
  ASSERT_TRUE(first->ok()) << first->status().ToString();
  ASSERT_TRUE(second->ok()) << second->status().ToString();

  // One stream per unique component, ever.
  for (const ImplementationComponent& comp : comps) {
    ImplementationComponentObject* ico = *manager->icos().Find(comp.id);
    EXPECT_EQ(ico->fetches_served(), 1u) << comp.name;
  }
  EXPECT_EQ(manager->fetcher().fetches_issued(), comps.size());
  // The second instance's four requests all joined in-flight streams.
  EXPECT_EQ(manager->fetcher().fetches_coalesced(), comps.size());
}

// A mid-pipeline fetch failure surfaces the exact component that failed,
// not a generic "creation failed" — and not a hang at the default
// concurrency either.
TEST_F(FetcherTest, FetchFailureNamesTheComponent) {
  for (int concurrency : {1, 8}) {
    Testbed testbed{Parallel(concurrency)};
    auto manager = MakeManager(testbed, "failing", 3);
    testbed.network().SetPartitioned(testbed.host(0)->node(),
                                     testbed.host(1)->node(), true);

    Result<ObjectId> result =
        CreateBlocking(testbed, *manager, testbed.host(1));
    ASSERT_FALSE(result.ok()) << "concurrency " << concurrency;
    // The error names one of the components and the destination.
    EXPECT_NE(result.status().message().find("failing-comp"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("fetch to node"),
              std::string::npos)
        << result.status().ToString();
  }
}

// Migration warm-up is best-effort: a destination cut off from the ICO
// home still completes the move (the instance re-fetches lazily), at the
// default concurrency too.
TEST_F(FetcherTest, MigrationSurvivesUnreachableIcoHome) {
  Testbed testbed{Parallel(1)};
  auto manager = MakeManager(testbed, "moving", 3);
  Result<ObjectId> instance =
      CreateBlocking(testbed, *manager, testbed.host(1));
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  testbed.network().SetPartitioned(testbed.host(0)->node(),
                                   testbed.host(2)->node(), true);

  std::optional<Status> migrated;
  manager->MigrateInstance(*instance, testbed.host(2),
                           [&](Status status) { migrated = status; });
  testbed.simulation().Run();
  ASSERT_TRUE(migrated.has_value());
  EXPECT_TRUE(migrated->ok()) << migrated->ToString();
}

// Components already cached on the destination never open a stream.
TEST_F(FetcherTest, CachedComponentsSkipTheWire) {
  Testbed testbed{Parallel(8)};
  std::vector<ImplementationComponent> comps;
  auto manager = MakeManager(testbed, "warm", 3, &comps);
  for (const ImplementationComponent& comp : comps) {
    testbed.host(1)->CacheComponent(comp.id, comp.code_bytes);
  }
  Result<ObjectId> result = CreateBlocking(testbed, *manager, testbed.host(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(manager->fetcher().fetches_issued(), 0u);
  for (const ImplementationComponent& comp : comps) {
    EXPECT_EQ((*manager->icos().Find(comp.id))->fetches_served(), 0u);
  }
}

// Prefetch warms the destination cache ahead of need, at every concurrency.
TEST_F(FetcherTest, PrefetchWarmsCacheAtEveryConcurrency) {
  for (int concurrency : {1, 8}) {
    Testbed testbed{Parallel(concurrency)};
    std::vector<ImplementationComponent> v2_comps;
    auto manager = MakeManager(testbed, "pf", 1);
    // Derive a v2 that adds two more components.
    VersionId v1 = manager->current_version();
    VersionId v2 = *manager->DeriveVersion(v1);
    DfmDescriptor* d2 = *manager->MutableDescriptor(v2);
    for (int i = 0; i < 2; ++i) {
      v2_comps.push_back(testing::MakeEchoComponent(
          testbed.registry(), "pf-extra" + std::to_string(i),
          {"extra" + std::to_string(i)}));
      ASSERT_TRUE(manager->PublishComponent(v2_comps.back()).ok());
      ASSERT_TRUE(d2->IncorporateComponent(v2_comps.back()).ok());
      ASSERT_TRUE(
          d2->EnableFunction("extra" + std::to_string(i), v2_comps.back().id)
              .ok());
    }
    ASSERT_TRUE(manager->MarkInstantiable(v2).ok());

    Result<ObjectId> instance =
        CreateBlocking(testbed, *manager, testbed.host(1));
    ASSERT_TRUE(instance.ok());
    manager->PrefetchInstanceVersion(*instance, v2);
    testbed.simulation().Run();
    for (const ImplementationComponent& comp : v2_comps) {
      EXPECT_TRUE(testbed.host(1)->ComponentCached(comp.id))
          << "concurrency " << concurrency;
    }
  }
}

// The paper's configuration (500 functions / 50 components, cold caches):
// one stream at a time reproduces the ~10 s figure; concurrency 8 cuts it
// by at least 3x on the same cost model.
TEST_F(FetcherTest, ParallelAcquisitionAtLeastThreeTimesFaster) {
  auto creation_seconds = [&](int concurrency) {
    Testbed testbed{Parallel(concurrency)};
    auto manager = std::make_unique<DcdoManager>(
        "paper", testbed.host(0), &testbed.transport(), &testbed.agent(),
        &testbed.registry(), MakeSingleVersionExplicit());
    // 50 components, 10 functions each, 100 KB images (the E3/E13 shape).
    std::vector<ImplementationComponent> comps;
    for (int c = 0; c < 50; ++c) {
      std::vector<std::string> fns;
      for (int f = 0; f < 10; ++f) {
        fns.push_back("fn" + std::to_string(c * 10 + f));
      }
      comps.push_back(testing::MakeEchoComponent(
          testbed.registry(), "paper-c" + std::to_string(c), fns, 100 * 1024));
      EXPECT_TRUE(manager->PublishComponent(comps.back()).ok());
    }
    VersionId v1 = *manager->CreateRootVersion();
    DfmDescriptor* d1 = *manager->MutableDescriptor(v1);
    for (const ImplementationComponent& comp : comps) {
      EXPECT_TRUE(d1->IncorporateComponent(comp).ok());
      for (const FunctionImplDescriptor& fn : comp.functions) {
        EXPECT_TRUE(d1->EnableFunction(fn.function.name, comp.id).ok());
      }
    }
    EXPECT_TRUE(manager->MarkInstantiable(v1).ok());
    EXPECT_TRUE(manager->SetCurrentVersion(v1).ok());
    sim::SimTime start = testbed.simulation().Now();
    Result<ObjectId> instance =
        CreateBlocking(testbed, *manager, testbed.host(1));
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    return (testbed.simulation().Now() - start).ToSeconds();
  };

  double sequential = creation_seconds(1);
  double parallel = creation_seconds(8);
  // Paper range for the sequential figure (Section 6: "approximately ten
  // seconds" for the 500-function configuration).
  EXPECT_GT(sequential, 9.0);
  EXPECT_LT(sequential, 12.0);
  EXPECT_LE(parallel, sequential / 3.0)
      << "sequential " << sequential << " s, parallel " << parallel << " s";
}

}  // namespace
}  // namespace dcdo
