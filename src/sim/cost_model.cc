#include "sim/cost_model.h"

#include <cmath>
#include <string>

#include "common/status.h"

namespace dcdo::sim {

// A cost model that violates these would make the reproduction's arithmetic
// meaningless (a zero or NaN rate turns a charge into NaN, which the clock
// cannot hold) or hang it (no session slots); Testbed refuses such a model
// at construction. The comparisons are written so that NaN fails them.
Status ValidateCostModel(const CostModel& m) {
  struct NamedValue {
    const char* name;
    double value;
  };
  const NamedValue rates[] = {
      {"wire bandwidth", m.wire_bandwidth_bytes_per_sec},
      {"marshal bandwidth", m.marshal_bytes_per_sec},
      {"disk read bandwidth", m.disk_read_bytes_per_sec},
      {"disk write bandwidth", m.disk_write_bytes_per_sec},
      {"state capture bandwidth", m.state_capture_bytes_per_sec},
      {"state restore bandwidth", m.state_restore_bytes_per_sec},
  };
  for (const auto& rate : rates) {
    if (!(std::isfinite(rate.value) && rate.value > 0)) {
      return InvalidArgumentError(std::string(rate.name) +
                                  " must be finite and positive");
    }
  }
  const NamedValue efficiencies[] = {
      {"bulk transfer efficiency", m.bulk_transfer_efficiency},
      {"component transfer efficiency", m.component_transfer_efficiency},
  };
  for (const auto& efficiency : efficiencies) {
    if (!(efficiency.value > 0 && efficiency.value <= 1.0)) {
      return InvalidArgumentError(std::string(efficiency.name) +
                                  " must be in (0,1]");
    }
  }
  const struct {
    const char* name;
    SimDuration value;
  } durations[] = {
      {"network latency", m.network_latency},
      {"transfer setup", m.transfer_setup},
      {"rpc marshal per call", m.rpc_marshal_per_call},
      {"rpc dispatch", m.rpc_dispatch},
      {"dfm lookup", m.dfm_lookup},
      {"dfm register per function", m.dfm_register_per_function},
      {"process spawn", m.process_spawn},
      {"activation handshake", m.activation_handshake},
      {"component map (cached)", m.component_map_cached},
      {"component fetch overhead", m.component_fetch_overhead},
      {"disk seek", m.disk_seek},
      {"invocation timeout", m.invocation_timeout},
      {"rebind query", m.rebind_query},
      {"binding lease duration", m.binding_lease_duration},
  };
  for (const auto& duration : durations) {
    if (duration.value < SimDuration::Zero()) {
      return InvalidArgumentError(std::string(duration.name) +
                                  " must be non-negative");
    }
  }
  if (m.stale_retry_count < 0) {
    return InvalidArgumentError("stale retry count must be non-negative");
  }
  if (m.session_slots < 1) {
    return InvalidArgumentError("session slots must be at least 1");
  }
  if (m.fetch_concurrency < 1) {
    return InvalidArgumentError("fetch concurrency must be at least 1");
  }
  return Status::Ok();
}

}  // namespace dcdo::sim
