// Activation: where an object is present — its process on a host, its
// endpoint at (node, pid, epoch) and its binding in the agent — opened,
// moved and closed as one value (DESIGN.md §13). Destruction closes.
#pragma once

#include <cstdint>
#include <utility>

#include "common/object_id.h"
#include "naming/address.h"
#include "naming/binding_agent.h"
#include "rpc/transport.h"
#include "sim/host.h"

namespace dcdo::rpc {

class Activation {
 public:
  // A closed activation of `object`, served by `transport`, named in `agent`.
  Activation(const ObjectId& object, RpcTransport* transport,
             BindingAgent* agent)
      : object_(object), transport_(*transport), agent_(*agent) {}
  ~Activation() { Close(); }
  Activation(const Activation&) = delete;
  Activation& operator=(const Activation&) = delete;

  // Opens the object on `host` at `epoch` in `pid`, spawned for it (0: adopts
  // a process), binding it, then registering `handler`. No-op when open.
  void Open(sim::SimHost* host, std::uint64_t epoch, Handler handler,
            sim::ProcessId pid = 0) {
    if (open_) return;
    host_ = host;
    node_ = host->node();
    pid_ = pid != 0 ? pid : host->AdoptProcess(object_);
    epoch_ = epoch;
    open_ = true;
    agent_.Bind(object_, address());
    transport_.RegisterEndpoint(node_, pid_, epoch_, std::move(handler));
  }

  // Unregisters the endpoint, kills the process and unbinds, exactly once.
  void Close() {
    if (!open_) return;
    Retire();
    agent_.Unbind(object_);
  }

  // Ends the present activation, if open, and opens the object at the next
  // epoch on `host`, replacing its binding in one step: leaseholders are
  // pushed the fresh address, not a drop notice.
  void MoveTo(sim::SimHost* host, Handler handler) {
    if (open_) Retire();
    Open(host, epoch_ + 1, std::move(handler));
  }

  const ObjectId& object() const { return object_; }
  bool open() const { return open_; }
  // The present address, or the last one once closed.
  ObjectAddress address() const { return {node_, pid_, epoch_}; }
  sim::SimHost* host() const { return host_; }  // null until first opened

 private:
  void Retire() {  // ends the endpoint and the process; the binding stays
    open_ = false;
    transport_.UnregisterEndpoint(node_, pid_);
    (void)host_->KillProcess(pid_);
  }

  ObjectId object_;
  RpcTransport& transport_;
  BindingAgent& agent_;
  sim::SimHost* host_ = nullptr;
  sim::NodeId node_ = 0;
  bool open_ = false;
  sim::ProcessId pid_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace dcdo::rpc
