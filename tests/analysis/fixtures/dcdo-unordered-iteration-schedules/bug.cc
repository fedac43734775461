// Reduced reproduction of the PR 5 determinism hazard: scheduling
// simulation events (or sending messages) while iterating an unordered
// container. Event order then depends on hash-table layout — which varies
// across libstdc++ versions, platforms, and insertion histories — so the
// byte-identical SimTime_* baselines drift. PR 5's SimNetwork fair-share
// recompute had to impose flow-id ordering for exactly this reason.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct Simulation {
  std::uint64_t Schedule(std::int64_t delay_ns, std::function<void()> fn);
};

struct Network {
  void BulkTransfer(int from, int to, std::size_t bytes,
                    std::function<void()> on_done);
};

struct Flow {
  std::int64_t restart_delay_ns = 0;
};

class FlowTable {
 public:
  // Hash-order iteration feeding the event queue: nondeterministic event
  // ordering at equal timestamps.
  void RescheduleAll(Simulation& sim) {
    for (auto& [id, flow] : flows_) {  // expect: dcdo-unordered-iteration-schedules
      sim.Schedule(flow.restart_delay_ns, [] {});
    }
  }

  // Same hazard through a message-send sink.
  void NotifyAll() {
    for (int node : dirty_nodes_) {  // expect: dcdo-unordered-iteration-schedules
      Send(node);
    }
  }

  // Same hazard through a bulk-transfer sink: transfers started at one
  // instant land at equal timestamps in hash order.
  void PushStateAll(Network& network) {
    for (const auto& [node, bytes] : pending_state_) {  // expect: dcdo-unordered-iteration-schedules
      network.BulkTransfer(0, node, bytes, [] {});
    }
  }

  void Send(int node);

 private:
  std::unordered_map<int, Flow> flows_;
  std::unordered_set<int> dirty_nodes_;
  std::unordered_map<int, std::size_t> pending_state_;
};

}  // namespace fixture
