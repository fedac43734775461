// Wall-clock and OS-randomness reads inside simulation logic. Replays of
// the same scenario must produce byte-identical SimTime_* results; a
// std::chrono clock read, rand(), or std::random_device seed makes the
// outcome depend on the host instead of the event queue. (Wall stamps are
// legitimate in the span recorder — spans carry sim and wall time — which is
// why scripts/analyze.sh allowlists that path prefix.)
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>

namespace fixture {

class RetryPolicy {
 public:
  // Deadline computed from the host clock instead of sim time.
  std::int64_t DeadlineNanos() const {
    auto now = std::chrono::steady_clock::now();  // expect: dcdo-wallclock-in-sim
    return now.time_since_epoch().count() + budget_ns_;
  }

  // Jitter from the global C RNG: unseeded, platform-varying.
  std::int64_t JitterNanos() const {
    return rand() % 1000;  // expect: dcdo-wallclock-in-sim
  }

  // Nondeterministic seeding: every replay walks a different schedule.
  std::uint64_t PickSeed() const {
    std::random_device entropy;  // expect: dcdo-wallclock-in-sim
    return entropy();
  }

 private:
  std::int64_t budget_ns_ = 0;
};

}  // namespace fixture
