// Implementation Component Objects (paper Section 2.3).
//
// "An implementation component object (ICO) is an active distributed object
// that maintains an implementation component's data — the executable code
// that comprises the component, the descriptor that describes the contents
// of the executable code, and the component's implementation type."
//
// ICOs exist so that components live in the system's global namespace (they
// are named by ObjectId and resolvable through binding agents like any other
// object) and so that the image bytes stay put until someone actually needs
// them. A DCDO incorporating a component first reads the small metadata via
// RPC, then — only if the image is not already in its host's component
// cache — streams the image via bulk transfer.
#pragma once

#include <functional>

#include "component/component.h"
#include "instrument/metrics.h"
#include "instrument/spans.h"
#include "naming/binding_agent.h"
#include "rpc/activation.h"
#include "sim/host.h"

namespace dcdo {

class ImplementationComponentObject {
 public:
  // Exported method names in the ICO's interface.
  static constexpr const char* kGetDescriptor = "getDescriptor";
  static constexpr const char* kGetSize = "getSize";

  // Activates the ICO on `host` until it is destroyed: binds its component's
  // id in the binding agent and registers an RPC endpoint. The component id
  // *is* the ICO's global name (the ICO is the component, as active object).
  ImplementationComponentObject(sim::SimHost* host,
                                rpc::RpcTransport* transport,
                                BindingAgent* agent,
                                ImplementationComponent component);

  ImplementationComponentObject(const ImplementationComponentObject&) = delete;
  ImplementationComponentObject& operator=(
      const ImplementationComponentObject&) = delete;

  const ObjectId& id() const { return component_->id; }
  const ImplementationComponent& component() const { return *component_; }
  // The same metadata as a shared record: an incorporate that names this
  // ICO shares it instead of copying the function list.
  const ComponentRecord& record() const { return component_; }
  sim::NodeId node() const { return activation_.address().node; }

  // Streams the component image to `dest`'s component cache through
  // SimNetwork::StreamTransfer, so concurrent fetches fair-share the wire;
  // `done` runs when the image is cached there (or immediately if already
  // cached). A solo stream costs the download time the paper describes for
  // non-cached components. A failure (unreachable, dropped in flight) comes
  // back as a Status naming this component and the destination node. The
  // stream's span nests under `requester` when it is not 0.
  void StreamTo(sim::SimHost* dest, std::function<void(Status)> done,
                trace::SpanId requester = 0);

  std::uint64_t fetches_served() const { return fetches_served_.value(); }

 private:
  ComponentRecord component_;
  rpc::Activation activation_;
  trace::Counter fetches_served_;
};

}  // namespace dcdo
