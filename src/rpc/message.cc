#include "rpc/message.h"

#include <utility>
#include <vector>

namespace dcdo::rpc {

FunctionId MethodInvocation::ResolvedId() const {
  if (!method_id.valid()) return FunctionId::Invalid();
  // Trust the id only if the local intern table already covers the sender's
  // epoch; a receiver that has never seen the name (or a forged/corrupt id)
  // falls back to the string form instead of misresolving.
  //
  // Soundness caveat: "table long enough" implies "identical id->name
  // mapping" ONLY because FunctionNameTable::Global() is one process-global,
  // append-only table that every simulated node reads — covering the
  // sender's epoch means both sides see the very same prefix. If per-node
  // intern tables are ever modeled (the real first-contact negotiation this
  // epoch stands in for), equal length would no longer imply equal content,
  // and the wire form must carry a content check — e.g. a hash of the
  // method name alongside the id — validated here before the id is trusted.
  if (name_epoch == 0 || method_id.value >= name_epoch ||
      name_epoch > FunctionNameTable::Global().size()) {
    return FunctionId::Invalid();
  }
  return method_id;
}

std::string_view MethodInvocation::method_name() const {
  if (!method.empty()) return method;
  FunctionId id = ResolvedId();
  if (id.valid()) return FunctionNameTable::Global().NameOf(id);
  return {};
}

namespace {
std::vector<ByteBuffer>& Pool() {
  thread_local std::vector<ByteBuffer> pool;
  return pool;
}
}  // namespace

ByteBuffer WireBufferPool::Acquire() {
  std::vector<ByteBuffer>& pool = Pool();
  if (!pool.empty()) {
    ByteBuffer buffer = std::move(pool.back());
    pool.pop_back();
    buffer.Clear();
    return buffer;
  }
  ByteBuffer buffer;
  buffer.Reserve(kHeaderBytes);
  return buffer;
}

void WireBufferPool::Release(ByteBuffer buffer) {
  std::vector<ByteBuffer>& pool = Pool();
  if (pool.size() >= kMaxPooled || buffer.capacity() == 0) return;
  buffer.Clear();
  pool.push_back(std::move(buffer));
}

}  // namespace dcdo::rpc
