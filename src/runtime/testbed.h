// Testbed: one-call assembly of the simulated Centurion cluster.
//
// The paper's experiments ran on a 16-node subset of the Legion "Centurion"
// machine (dual 400 MHz Pentium IIs, 100 Mbps switched Ethernet). Testbed
// wires up the full substrate — simulation, cost model, network, hosts,
// binding agent, RPC transport, and the native-code registry — so tests,
// benches, and examples start from the same environment the paper did.
//
// Hosts take NodeIds 1..host_count. When the cost model turns binding leases
// on, the agent gets one more node, host_count + 1, which its invalidation
// pushes leave from; it is not one of host(i).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "component/native_code_registry.h"
#include "instrument/context.h"
#include "naming/binding_agent.h"
#include "naming/name_service.h"
#include "rpc/client.h"
#include "rpc/transport.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace dcdo {

class Testbed {
 public:
  struct Options {
    int host_count = 16;
    // All hosts x86/Linux by default (the Centurion subset was homogeneous);
    // set true to alternate architectures for heterogeneity experiments.
    bool heterogeneous = false;
    sim::CostModel cost_model = {};
    // The testbed installs one instrument::Context when either consumer is
    // on; with both off, every instrumentation site is one null test.
    // checking: the invariant checker and race detector. Default on — tests
    // run checked; benches measuring the raw runtime turn it off.
    bool checking = true;
    // tracing: the span recorder (causal spans and instants). Default off —
    // tracing is opt-in per scenario.
    bool tracing = false;
  };

  explicit Testbed(const Options& options);
  Testbed() : Testbed(Options{}) {}
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& simulation() { return simulation_; }
  const sim::CostModel& cost_model() const { return network_->cost_model(); }
  sim::SimNetwork& network() { return *network_; }
  BindingAgent& agent() { return agent_; }
  NameService& names() { return names_; }
  rpc::RpcTransport& transport() { return *transport_; }
  NativeCodeRegistry& registry() { return registry_; }

  sim::SimHost* host(std::size_t index) { return hosts_.at(index).get(); }
  std::size_t host_count() const { return hosts_.size(); }

  // A client running on host `index` with its own binding cache.
  std::unique_ptr<rpc::RpcClient> MakeClient(std::size_t host_index);

  // Drives the simulation until idle.
  void RunAll() { simulation_.Run(); }

  // The installed checker, or nullptr when Options::checking is off.
  check::Checker* checker() {
    return instrument_ ? instrument_->checker() : nullptr;
  }

  // The installed span recorder, or nullptr when Options::tracing is off.
  trace::SpanRecorder* tracer() {
    return instrument_ ? instrument_->spans() : nullptr;
  }

  // Exports the collected trace as Chrome trace-event JSON (chrome://tracing
  // / Perfetto), with the member totals of the network, transport, hosts and
  // binding agent as its counters. Fails when tracing is not installed.
  [[nodiscard]] Status DumpTrace(const std::string& path);

 private:
  sim::Simulation simulation_;
  std::unique_ptr<instrument::Context> instrument_;
  std::unique_ptr<sim::SimNetwork> network_;
  std::vector<std::unique_ptr<sim::SimHost>> hosts_;
  BindingAgent agent_;
  NameService names_;
  std::unique_ptr<rpc::RpcTransport> transport_;
  NativeCodeRegistry registry_;
};

}  // namespace dcdo
