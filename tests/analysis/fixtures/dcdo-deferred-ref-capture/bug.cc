// Reduced reproduction of the dangling-capture class: handing a deferred
// sink a lambda that captures locals by reference. The callback fires from
// the event loop after this frame has returned, so `[&]` / `[&x]` captures
// name stack storage that is already gone. The original instance was the
// `&source` capture in DcdoManager::MigrateInstance's bulk-transfer
// callback; it only worked while the driver happened to drain the queue
// before the capturing frame unwound.
#include <cstdint>
#include <functional>

namespace fixture {

struct Simulation {
  std::uint64_t Schedule(std::int64_t delay_ns, std::function<void()> fn);
  std::uint64_t ScheduleAt(std::int64_t when_ns, std::function<void()> fn);
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
  // Default by-ref capture into a deferred callback: every local it
  // touches is stack storage that is gone by fire time.
  void RestartLater(Simulation& sim) {
    int attempts = 0;
    sim.Schedule(1000, [&] { ++attempts; });  // expect: dcdo-deferred-ref-capture
  }

  // Named by-ref capture at an absolute time: `pending` dies with this
  // frame long before the event fires.
  void TrackCompletion(Simulation& sim, std::int64_t when_ns) {
    int pending = 1;
    sim.ScheduleAt(when_ns,
                   [this, &pending] { pending += seen_; });  // expect: dcdo-deferred-ref-capture
  }

  // A multi-line call is still one argument span; the delivery callback
  // runs when the message lands at the destination.
  void Deliver(Network& net, int from, int to) {
    bool delivered = false;
    net.Send(from, to, 64,
             [&delivered] { delivered = true; });  // expect: dcdo-deferred-ref-capture
  }

  // The spawn completes process_spawn later; `host` is this frame's
  // parameter, a reference the callback must not keep (the reduced form of
  // a reactivation's `&host` capture).
  void Respawn(Host& host, int owner) {
    host.SpawnProcess(owner, 1024,
                      [&host](std::uint64_t pid) { host.KillProcess(pid); });  // expect: dcdo-deferred-ref-capture
  }

  // Bulk and stream transfers land seconds later, long after `landed` and
  // `bytes` are gone.
  void Download(Network& net, int from, int to) {
    bool landed = false;
    net.BulkTransfer(from, to, 4096,
                     [&landed](bool delivered) { landed = delivered; });  // expect: dcdo-deferred-ref-capture
  }

  void Stream(Network& net, int from, int to) {
    int bytes = 550000;
    net.StreamTransfer(from, to, bytes, 1000, 1.0e6,
                       [&](bool delivered) { seen_ += delivered ? bytes : 0; });  // expect: dcdo-deferred-ref-capture
  }

 private:
  int seen_ = 0;
};

}  // namespace fixture
