// The committed replacement for the heap-continuation class: a pooled
// state machine in the style of runtime::Fom (DESIGN.md §16). One object
// holds the whole operation's state, a phase enum names each step, and a
// single Tick() advances — no shared_ptr<std::function> cells, no
// enable_shared_from_this keepalive, one allocation (pooled in the real
// runtime) for the whole operation.
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace fixture {

struct Step {
  int id = 0;
};

// Mirrors the runtime::Fom shape: phase + Tick, state as plain members.
class ChainFom {
 public:
  ChainFom(std::vector<Step> steps, std::function<void()> done)
      : steps_(std::move(steps)), done_(std::move(done)) {}

  // True until the queue drains; RunChain ticks again while it is.
  bool Tick() {
    if (index_ == steps_.size()) {
      done_();
      return false;  // done
    }
    ++index_;
    return true;  // more steps
  }

 private:
  enum Phase { kStep };
  std::vector<Step> steps_;
  std::function<void()> done_;
  std::size_t index_ = 0;
};

void RunChain(std::vector<Step> steps, std::function<void()> done) {
  // The real runtime pools this block (FomScheduler::Create); one
  // allocation covers every hop of the operation.
  auto fom = std::make_unique<ChainFom>(std::move(steps), std::move(done));
  while (fom->Tick()) {
  }
}

}  // namespace fixture
