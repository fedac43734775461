// The committed fix patterns: deferred callbacks capture by value — ids,
// copies, or an owner pointer whose lifetime the scheduler controls (`this`
// for components torn down only after the simulation drains). By-reference
// captures remain fine in immediate callers (predicates, comparators) that
// run inside the capturing frame, and driver code that provably drains the
// queue before its frame returns may keep one behind a NOLINT with a reason.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace fixture {

struct Simulation {
  std::uint64_t Schedule(std::int64_t delay_ns, std::function<void()> fn);
  bool RunWhile(std::function<bool()> predicate);
};

struct Network {
  void Send(int from, int to, int bytes, std::function<void()> deliver);
  void BulkTransfer(int from, int to, int bytes,
                    std::function<void(bool)> on_done);
  void StreamTransfer(int from, int to, int bytes, std::int64_t setup_ns,
                      double peak, std::function<void(bool)> on_done);
};

struct Host {
  void SpawnProcess(int owner, int bytes,
                    std::function<void(std::uint64_t)> on_ready);
  void KillProcess(std::uint64_t pid);
};

class Churn {
 public:
  // Value captures: the callback owns copies of everything it needs, and
  // `this` outlives the drained queue by construction.
  void RestartLater(Simulation& sim, int attempt) {
    sim.Schedule(1000, [this, attempt] { seen_ = attempt; });
  }

  // Immediate execution is not a deferred sink: RunWhile's predicate and
  // std::sort's comparator run inside this frame, so by-reference
  // captures are safe there.
  void DrainUntil(Simulation& sim, int target) {
    int fired = 0;
    sim.RunWhile([&] { return fired < target; });
    std::vector<int> order = {3, 1, 2};
    std::sort(order.begin(), order.end(),
              [&target](int a, int b) { return a % target < b % target; });
  }

  // The escape hatch: test-driver code that drains the simulation before
  // this frame returns documents the exception instead of copying.
  void Probe(Simulation& sim) {
    bool done = false;
    sim.Schedule(500,
                 // NOLINTNEXTLINE(dcdo-deferred-ref-capture): drained below
                 [&done] { done = true; });
    sim.RunWhile([&] { return !done; });
  }

  // A by-value delivery callback: the message carries its own payload.
  void Deliver(Network& net, int from, int to) {
    net.Send(from, to, 64, [this, to] { seen_ = to; });
  }

  // The spawn's callback keeps the host by pointer, a value that outlives
  // the frame (hosts outlive the simulation).
  void Respawn(Host* host, int owner) {
    host->SpawnProcess(owner, 1024,
                       [host](std::uint64_t pid) { host->KillProcess(pid); });
  }

  // Transfers carry copies of what their completion needs.
  void Download(Network& net, int from, int to, int bytes) {
    net.BulkTransfer(from, to, bytes,
                     [this, bytes](bool delivered) {
                       seen_ += delivered ? bytes : 0;
                     });
    net.StreamTransfer(from, to, bytes, 1000, 1.0e6,
                       [this, to](bool delivered) {
                         if (delivered) seen_ = to;
                       });
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
