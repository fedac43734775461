#include "runtime/testbed.h"

#include <cstdlib>

#include "common/logging.h"
#include "instrument/chrome_trace.h"
#include "runtime/fom.h"

namespace dcdo {

Testbed::Testbed(const Options& options) {
  // A model ValidateCostModel rejects breaks the simulation's arithmetic or
  // stalls it (zero session slots park every call forever), so refuse it
  // loudly.
  Status valid = sim::ValidateCostModel(options.cost_model);
  if (!valid.ok()) {
    DCDO_LOG(kError) << "testbed: cost model rejected: " << valid.message();
    std::abort();
  }
  if (options.checking || options.tracing) {
    // Installed before anything else exists, so every binding cache and
    // DCDO constructed over this testbed registers its probe, and the first
    // spans come from the substrate.
    instrument_ = std::make_unique<instrument::Context>(
        instrument::Context::Options{.checking = options.checking,
                                     .tracing = options.tracing});
    instrument_->AttachSimulation(&simulation_);
    instrument_->Install();
  }
  network_ =
      std::make_unique<sim::SimNetwork>(&simulation_, options.cost_model);
  transport_ = std::make_unique<rpc::RpcTransport>(network_.get());
  if (check::Checker* checker = this->checker()) {
    checker->SetEndpointLiveness(
        [this](std::uint32_t node, std::uint64_t pid, std::uint64_t epoch) {
          return transport_->EndpointEpoch(static_cast<sim::NodeId>(node),
                                           static_cast<sim::ProcessId>(pid)) ==
                     epoch &&
                 epoch != 0;
        });
    checker->SetNetworkProbe([this]() {
      check::NetworkCounters counters;
      counters.sent = network_->messages_sent();
      counters.delivered = network_->messages_delivered();
      counters.dropped_in_flight = network_->messages_dropped_in_flight();
      counters.in_flight = network_->messages_in_flight();
      return counters;
    });
    // operations-complete: every long operation calls back, so none is
    // left parked once the event queue, all that could wake it, is empty.
    checker->RegisterInvariant(
        {"operations-complete", "runtime",
         "Abstract: objects evolve \"without interrupting the clients of "
         "evolving objects\": every operation reports to its client",
         [this](check::Checker& ctx) {
           if (!simulation_.Idle()) return;
           for (const auto& [id, fom] :
                runtime::FomScheduler::For(simulation_).Live()) {
             ctx.Report(ctx.MakeDiagnostic(
                 check::Severity::kError, "operations-complete", ObjectId(),
                 std::string(fom->name()) + " #" + std::to_string(id) +
                     " never calls back: parked in phase '" +
                     fom->phase_name() + "' with the event queue empty"));
           }
         }});
  }
  static constexpr sim::Architecture kRotation[] = {
      sim::Architecture::kX86Linux, sim::Architecture::kSparcSolaris,
      sim::Architecture::kAlphaOsf, sim::Architecture::kX86Nt};
  for (int i = 0; i < options.host_count; ++i) {
    sim::Architecture arch =
        options.heterogeneous ? kRotation[i % 4] : sim::Architecture::kX86Linux;
    hosts_.push_back(std::make_unique<sim::SimHost>(
        &simulation_, network_.get(), static_cast<sim::NodeId>(i + 1), arch));
  }
  if (options.cost_model.binding_lease_duration > sim::SimDuration::Zero()) {
    // Leases: the binding agent pushes invalidations from its own host,
    // numbered just above the workload hosts so they keep ids 1..host_count.
    // With leases off the agent stays an unattached in-memory map.
    const auto agent_node = static_cast<sim::NodeId>(options.host_count + 1);
    network_->AddNode(agent_node);
    Status attached = agent_.Attach(network_.get(), agent_node);
    if (!attached.ok()) {
      DCDO_LOG(kError) << "testbed: binding agent rejected: "
                       << attached.message();
      std::abort();
    }
  }
}

Testbed::~Testbed() {
  // Final sweep: catches quiescence-only violations (messages still in
  // flight).
  if (check::Checker* checker = this->checker()) checker->EvaluateAtEnd();
  if (instrument_) instrument_->Uninstall();
}

Status Testbed::DumpTrace(const std::string& path) {
  trace::SpanRecorder* spans = tracer();
  if (spans == nullptr) {
    return FailedPreconditionError(
        "tracing is not installed on this testbed (Options::tracing)");
  }
  // Each count lives once, in its owner's member counter or in the spans;
  // hand the totals of what the testbed owns to the export.
  std::uint64_t evictions = 0;
  for (const auto& host : hosts_) evictions += host->component_evictions();
  return trace::WriteChromeTrace(
      *spans, path,
      {{"net.messages_sent", network_->messages_sent()},
       {"net.messages_delivered", network_->messages_delivered()},
       {"net.messages_dropped", network_->messages_dropped()},
       {"net.bytes_sent", network_->bytes_sent()},
       {"rpc.invocations_delivered", transport_->invocations_delivered()},
       {"rpc.epoch_rejections", transport_->epoch_rejections()},
       {"rpc.dedup_hits", transport_->dedup_hits()},
       {"rpc.session_stale", transport_->session_stale_drops()},
       {"naming.lookups_served", agent_.lookups_served()},
       {"naming.leases_granted", agent_.leases_granted()},
       {"naming.invalidations_sent", agent_.invalidations_sent()},
       {"naming.invalidations_delivered", agent_.invalidations_delivered()},
       {"host.component_cache_evictions", evictions}});
}

std::unique_ptr<rpc::RpcClient> Testbed::MakeClient(std::size_t host_index) {
  return std::make_unique<rpc::RpcClient>(transport_.get(), &agent_,
                                          hosts_.at(host_index)->node());
}

}  // namespace dcdo
