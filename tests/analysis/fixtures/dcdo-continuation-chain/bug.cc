// Reduced reproduction of the PR 10 heap-continuation class: multi-step
// async operations driven by shared_ptr<std::function> closure loops or
// enable_shared_from_this driver structs. Even the leak-free variants
// (weak self-capture, strong refs riding pending continuations) allocate a
// closure per hop and scatter one operation's state across capture lists —
// the shape the pooled runtime::Fom state machines replaced. The check
// flags the pattern itself, so the leaking self-capture cycles built from
// it (RunAliased) are caught at their heap cells too.
//
// The expectation markers drive tests/analysis/analysis_fixture_test.cpp.
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace fixture {

struct Step {
  int id = 0;
};

// Shape A: the closure-chain cell — a heap-allocated callable the hops
// re-enter through. Leak-free (weak self-capture), but still a chain.
void RunChain(std::vector<Step> steps, std::function<void()> done) {
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));  // expect: dcdo-continuation-chain
  auto next = std::make_shared<std::function<void(std::size_t)>>();  // expect: dcdo-continuation-chain
  *next = [weak_next = std::weak_ptr<std::function<void(std::size_t)>>(next),
           shared_done](std::size_t index) {
    if (index == 0) {
      (*shared_done)();
      return;
    }
    auto strong_next = weak_next.lock();
    (*strong_next)(index - 1);
  };
  (*next)(steps.size());
}

// Shape A with a leak: the closure stored in *apply captures its own owner
// through an init-capture alias, a shared_ptr cycle, so the whole capture
// set — the caller's `done` included — outlives every run.
void RunAliased(std::vector<Step> steps, std::function<void()> done) {
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));  // expect: dcdo-continuation-chain
  std::shared_ptr<std::function<void(std::size_t)>> apply =
      std::make_shared<std::function<void(std::size_t)>>();  // expect: dcdo-continuation-chain
  *apply = [self = apply, shared_done](std::size_t index) {
    if (index == 0) {
      (*shared_done)();
      return;
    }
    (*self)(index - 1);
  };
  (*apply)(steps.size());
}

// Shape B: the driver struct keeping itself alive through
// shared_from_this() captures in each pending continuation.
struct ChainDriver : std::enable_shared_from_this<ChainDriver> {  // expect: dcdo-continuation-chain
  std::vector<Step> steps;
  std::function<void()> done;

  void Run(std::size_t index) {
    if (index == 0) {
      done();
      return;
    }
    Defer([self = shared_from_this(), index] { self->Run(index - 1); });
  }

  static void Defer(std::function<void()> fn) { fn(); }
};

void RunDriven(std::vector<Step> steps, std::function<void()> done) {
  auto driver = std::make_shared<ChainDriver>();
  driver->steps = std::move(steps);
  driver->done = std::move(done);
  driver->Run(driver->steps.size());
}

}  // namespace fixture
