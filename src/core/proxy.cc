#include "core/proxy.h"

#include "common/serialize.h"

namespace dcdo {

Status DcdoProxy::RefreshInterface() {
  ++refreshes_;
  DCDO_ASSIGN_OR_RETURN(ByteBuffer wire,
                        client_.InvokeBlocking(target_, "dcdo.getInterface"));
  Reader reader(wire);
  DCDO_ASSIGN_OR_RETURN(std::uint64_t count, reader.ReadU64());
  // Smallest entry on the wire: two empty strings (their u64 lengths) and
  // the two flags.
  constexpr std::size_t kMinEntryBytes = 2 * sizeof(std::uint64_t) + 2;
  if (count > reader.remaining() / kMinEntryBytes) {
    return OutOfRangeError("interface entries overrun reply");
  }
  std::vector<InterfaceEntry> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    InterfaceEntry entry;
    DCDO_ASSIGN_OR_RETURN(entry.function.name, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(entry.function.signature, reader.ReadString());
    // Resolve the interned id once per refresh, not per lookup.
    entry.id = FunctionNameTable::Global().Intern(entry.function.name);
    DCDO_ASSIGN_OR_RETURN(entry.mandatory, reader.ReadBool());
    DCDO_ASSIGN_OR_RETURN(entry.permanent, reader.ReadBool());
    entries.push_back(std::move(entry));
  }
  interface_ = std::move(entries);
  index_.clear();
  for (std::size_t i = 0; i < interface_.size(); ++i) {
    index_.emplace(interface_[i].id, i);
  }
  interface_fetched_ = true;
  // The reply is fully parsed; recycle its capacity for the next message.
  rpc::WireBufferPool::Release(std::move(wire));
  return Status::Ok();
}

const InterfaceEntry* DcdoProxy::Find(std::string_view function) const {
  FunctionId id = FunctionNameTable::Global().Find(function);
  if (!id.valid()) return nullptr;
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &interface_[it->second];
}

bool DcdoProxy::Offers(std::string_view function) const {
  return Find(function) != nullptr;
}

bool DcdoProxy::IsAssured(const std::string& function) const {
  const InterfaceEntry* entry = Find(function);
  return entry != nullptr && entry->mandatory;
}

Result<VersionId> DcdoProxy::FetchVersion() {
  DCDO_ASSIGN_OR_RETURN(ByteBuffer wire,
                        client_.InvokeBlocking(target_, "dcdo.getVersion"));
  Reader reader(wire);
  Result<VersionId> version = reader.ReadVersionId();
  rpc::WireBufferPool::Release(std::move(wire));
  return version;
}

Result<ByteBuffer> DcdoProxy::Call(const std::string& function,
                                   const ByteBuffer& args) {
  if (!interface_fetched_) {
    DCDO_RETURN_IF_ERROR(RefreshInterface());
  }
  if (!Offers(function)) {
    // Not in the cached interface. The object may have evolved to *add* it
    // since we looked: refresh once before refusing.
    DCDO_RETURN_IF_ERROR(RefreshInterface());
    if (!Offers(function)) {
      return FunctionMissingError("'" + function +
                                  "' is not in the exported interface of " +
                                  target_.ToString());
    }
  }
  // Ship by id (Offers() just proved the name is interned): fixed-width wire
  // form, zero server-side string hashing. One shared arg buffer serves the
  // first attempt and any retry below.
  const FunctionId id = FunctionNameTable::Global().Find(function);
  std::shared_ptr<const ByteBuffer> shared_args;
  if (!args.empty()) shared_args = std::make_shared<const ByteBuffer>(args);
  Result<ByteBuffer> result = client_.InvokeBlocking(target_, id, shared_args);
  if (result.ok()) return result;
  ErrorCode code = result.status().code();
  if (code != ErrorCode::kFunctionMissing &&
      code != ErrorCode::kFunctionDisabled) {
    return result;  // not an evolution artifact; surface as-is
  }
  // The disappearing-exported-function problem, live: our interface was
  // stale. Refresh; if the function is still exported (a replacement was
  // enabled), retry once.
  DCDO_RETURN_IF_ERROR(RefreshInterface());
  if (!Offers(function)) {
    return result;  // genuinely gone; the caller handles the typed error
  }
  ++retries_;
  return client_.InvokeBlocking(target_, id, std::move(shared_args));
}

}  // namespace dcdo
