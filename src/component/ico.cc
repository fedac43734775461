#include "component/ico.h"

#include "common/logging.h"
#include "common/serialize.h"

namespace dcdo {

ImplementationComponentObject::ImplementationComponentObject(
    sim::SimHost* host, rpc::RpcTransport* transport, BindingAgent* agent,
    ImplementationComponent component)
    : component_(std::make_shared<const ImplementationComponent>(
          std::move(component))),
      activation_(component_->id, transport, agent) {
  // The ICO stores its image in the host file store and caches it locally —
  // fetching a component to its own home host is free.
  host->StoreFile("ico/" + component_->id.ToString(), component_->code_bytes);
  host->CacheComponent(component_->id, component_->code_bytes);
  activation_.Open(
      host, /*epoch=*/1,
      [this](const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        const std::string_view method = invocation.method_name();
        if (method == kGetDescriptor) {
          reply(rpc::MethodResult::Ok(SerializeComponentMeta(*component_)));
          return;
        }
        if (method == kGetSize) {
          Writer writer;
          writer.WriteU64(component_->code_bytes);
          reply(rpc::MethodResult::Ok(std::move(writer).Take()));
          return;
        }
        reply(rpc::MethodResult::Error(NotFoundError(
            "ICO " + component_->name + " has no method '" +
            std::string(method) + "'")));
      });
}

void ImplementationComponentObject::StreamTo(sim::SimHost* dest,
                                             std::function<void(Status)> done,
                                             trace::SpanId requester) {
  if (dest->ComponentCached(component_->id)) {
    done(Status::Ok());
    return;
  }
  fetches_served_.Increment();
  DCDO_LOG(kDebug) << "ico " << component_->name << ": streaming "
                   << component_->code_bytes << "B to node " << dest->node();
  const std::size_t bytes = component_->code_bytes;
  sim::SimHost& host = *activation_.host();
  const sim::CostModel& cost = host.cost_model();
  // Same cost decomposition as ComponentDownloadTime, re-expressed for the
  // fair-shared link: the per-component session overhead is the fixed setup,
  // the image then streams at up to efficiency × wire speed. A solo stream
  // therefore lands at exactly ComponentDownloadTime (DiskRead when local).
  bool local = host.node() == dest->node();
  sim::SimDuration setup =
      local ? cost.DiskRead(bytes) : cost.component_fetch_overhead;
  double peak =
      cost.wire_bandwidth_bytes_per_sec * cost.component_transfer_efficiency;
  sim::NodeId dest_node = dest->node();
  host.network().StreamTransfer(
      host.node(), dest_node, bytes, setup, peak,
      [dest, dest_node, record = component_,
       done = std::move(done)](bool delivered) mutable {
        if (!delivered) {
          done(UnavailableError("component '" + record->name + "' (" +
                                record->id.ToString() + ") fetch to node " +
                                std::to_string(dest_node) + " failed"));
          return;
        }
        dest->CacheComponent(record->id, record->code_bytes);
        done(Status::Ok());
      },
      requester);
}

}  // namespace dcdo
