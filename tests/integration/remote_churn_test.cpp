// Stress: concurrent remote invocations racing evolution churn, with the
// full checking layer (invariants + race detector) installed. Replies may
// come back by id or by name, callers may hit a function mid-swap or
// mid-disable — every outcome must be a success or a typed evolution error,
// and the checkers must stay silent throughout.
#include <gtest/gtest.h>

#include <random>

#include "common/serialize.h"
#include "component/ico.h"
#include "core/dcdo.h"
#include "rpc/client.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class RemoteChurnTest : public ::testing::Test {
 protected:
  RemoteChurnTest() {
    comp_a_ = testing::MakeEchoComponent(testbed_.registry(), "libA",
                                         {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(testbed_.registry(), "libB", {"f"});
    ico_a_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_a_);
    ico_b_ = std::make_unique<ImplementationComponentObject>(
        testbed_.host(0), &testbed_.transport(), &testbed_.agent(), comp_b_);
    icos_.Register(ico_a_.get());
    icos_.Register(ico_b_.get());
    object_ = std::make_unique<Dcdo>("churned", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
    // Three independent callers on three hosts, each with its own cache.
    for (std::size_t host : {4u, 5u, 6u}) {
      clients_.push_back(testbed_.MakeClient(host));
    }
    config_client_ = testbed_.MakeClient(7);
  }

  // Incorporates a component remotely, exactly as a manager would.
  void Incorporate(const ImplementationComponent& comp) {
    Writer writer;
    writer.WriteObjectId(comp.id);
    ASSERT_TRUE(config_client_
                    ->InvokeBlocking(object_->id(),
                                     "dcdo.incorporateComponent",
                                     std::move(writer).Take())
                    .ok());
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  std::unique_ptr<ImplementationComponentObject> ico_a_;
  std::unique_ptr<ImplementationComponentObject> ico_b_;
  std::unique_ptr<Dcdo> object_;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients_;
  std::unique_ptr<rpc::RpcClient> config_client_;
};

TEST_F(RemoteChurnTest, ConcurrentCallsVersusEvolutionChurnStayClean) {
  Incorporate(comp_a_);
  Incorporate(comp_b_);
  ASSERT_TRUE(object_->EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(object_->EnableFunction("g", comp_a_.id).ok());

  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> fn_pick(0, 1);
  std::uniform_int_distribution<int> op_pick(0, 3);
  std::uniform_int_distribution<std::int64_t> jitter_us(0, 800);

  int completed = 0;
  int typed_failures = 0;
  const char* fns[] = {"f", "g"};
  for (int round = 0; round < 40; ++round) {
    // A burst of async remote calls from every client, staggered so they
    // overlap the configuration change below while in flight.
    int launched = 0;
    for (auto& client : clients_) {
      for (int k = 0; k < 2; ++k) {
        const char* fn = fns[fn_pick(rng)];
        ++launched;
        testbed_.simulation().Schedule(
            sim::SimDuration::Micros(jitter_us(rng)),
            [&, fn, client = client.get()]() {
              client->Invoke(object_->id(), fn, ByteBuffer::FromString("x"),
                             [&](Result<ByteBuffer> result) {
                               ++completed;
                               if (result.ok()) return;
                               ErrorCode code = result.status().code();
                               EXPECT_TRUE(
                                   code == ErrorCode::kFunctionMissing ||
                                   code == ErrorCode::kFunctionDisabled)
                                   << result.status();
                               ++typed_failures;
                             });
            });
      }
    }
    // One configuration mutation lands mid-burst.
    testbed_.simulation().Schedule(
        sim::SimDuration::Micros(400), [&, op = op_pick(rng)]() {
          switch (op) {
            case 0:
              (void)object_->SwitchImplementation("f", comp_b_.id);
              break;
            case 1:
              (void)object_->SwitchImplementation("f", comp_a_.id);
              break;
            case 2:
              (void)object_->DisableFunction("g", comp_a_.id);
              break;
            case 3:
              (void)object_->EnableFunction("g", comp_a_.id);
              break;
          }
        });
    testbed_.RunAll();
    ASSERT_EQ(completed, launched) << "round " << round;
    completed = 0;
  }
  // Churn really exercised both outcomes.
  EXPECT_GT(typed_failures, 0);

  // The checking layer watched every event: zero diagnostics of any
  // severity, from the invariants and from the race detector alike.
  auto* checker = testbed_.checker();
  ASSERT_NE(checker, nullptr);
  checker->Evaluate();
  EXPECT_EQ(checker->diagnostics().count(), 0u)
      << checker->diagnostics().DumpText();
}

}  // namespace
}  // namespace dcdo
