// Wire-level types for Legion-style method invocation.
//
// A MethodInvocation names a target object (location-independent ObjectId),
// a method, and carries marshaled arguments. The expected activation epoch
// travels with the call so a process can reject invocations addressed to a
// previous activation of itself (the stale-binding signal).
//
// Method naming has a fast and a slow wire form:
//   * by-id (fast path): an interned FunctionId plus the name-table epoch the
//     sender requires, serialized fixed-width (kMethodIdWireBytes). The
//     receiver dispatches with zero string hashing. The epoch lets a receiver
//     whose intern table has not yet seen the name reject the id instead of
//     misresolving it — the sender then falls back to the string form
//     (first-contact negotiation).
//   * by-name (slow path): the method string travels on the wire. Used for
//     configuration methods ("dcdo.*", "mgr.*", which are dispatched by the
//     configurable-object layer, not the method table), for names never
//     interned, and as the negotiation fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/object_id.h"
#include "common/status.h"
#include "dfm/function_id.h"

namespace dcdo::rpc {

// Fixed per-message header overhead added to every wire message, covering
// addressing, security context, and Legion's message envelope.
inline constexpr std::size_t kHeaderBytes = 96;

// Wire footprint of the by-id method form: u32 FunctionId + u32 name epoch.
inline constexpr std::size_t kMethodIdWireBytes = 8;

// Wire footprint of the session carriage (u64 session id + u32 slot +
// u64 slot sequence), which every invocation carries.
inline constexpr std::size_t kSessionWireBytes = 20;

// Configuration methods are dispatched by name in the configurable-object
// layer (Dcdo/Manager), before any method table is consulted; they must stay
// on the string path so that layer keeps seeing them.
inline bool IsConfigMethodName(std::string_view name) {
  return name.starts_with("dcdo.") || name.starts_with("mgr.");
}

struct MethodInvocation {
  ObjectId target;
  // By-name (slow-path) method; empty when the id form is used instead.
  std::string method;
  // By-id (fast-path) method + the intern-table epoch it was minted under.
  FunctionId method_id;
  std::uint32_t name_epoch = 0;
  // The activation epoch expected (from 1 up, so an unset one never matches).
  std::uint64_t expected_epoch = 0;
  std::uint64_t call_id = 0;  // assigned by the client; echoed in the reply
  // Session carriage (src/rpc/session.*): names the client session this
  // call occupies a slot of; (session_slot, session_seq) let the server's
  // per-slot "last executed seq + cached reply" state give exactly-once in
  // O(slots) memory. Retries of one logical call carry identical values;
  // seq counts from 1, so an unset triple is dropped as stale.
  std::uint64_t session_id = 0;
  std::uint32_t session_slot = 0;
  std::uint64_t session_seq = 0;

  // The id form, iff it is trustworthy at this receiver: the local intern
  // table must have reached the sender's epoch (so the id maps to the same
  // name here). Invalid() otherwise — callers then use method_name().
  FunctionId ResolvedId() const;

  // The method name regardless of wire form: `method` when non-empty, else
  // the interned name of a resolvable id, else empty.
  std::string_view method_name() const;

  // Fills in the id form for an interned method (also records the epoch).
  void SetMethodId(FunctionId id) {
    method_id = id;
    name_epoch = id.valid() ? id.value + 1 : 0;
  }

  // Argument storage: either owned, or shared with the caller so retries
  // reuse one buffer instead of copying per attempt.
  const ByteBuffer& args() const { return shared_args_ ? *shared_args_ : args_; }
  void SetArgs(ByteBuffer args) {
    args_ = std::move(args);
    shared_args_.reset();
  }
  void SetSharedArgs(std::shared_ptr<const ByteBuffer> args) {
    shared_args_ = std::move(args);
    args_ = ByteBuffer{};
  }

  std::size_t WireSize() const {
    return kHeaderBytes +
           (method_id.valid() ? kMethodIdWireBytes : method.size()) +
           kSessionWireBytes + args().size();
  }

 private:
  ByteBuffer args_;
  std::shared_ptr<const ByteBuffer> shared_args_;
};

// A small freelist of wire buffers so steady-state request/reply traffic
// serializes into recycled capacity instead of allocating per message.
// Thread-local: the simulator's hot paths are single-threaded per thread of
// execution, so no lock is needed. Usage:
//
//   Writer writer(WireBufferPool::Acquire());   // reuses pooled capacity
//   ... write fields ...
//   ByteBuffer wire = std::move(writer).Take();
//   ... ship it; once the contents are consumed ...
//   WireBufferPool::Release(std::move(wire));   // capacity returns to pool
//
// Release is optional — a buffer that is never returned is simply freed.
class WireBufferPool {
 public:
  // A buffer with whatever capacity its previous life grew (empty contents),
  // or a fresh one reserved to kHeaderBytes if the pool is dry.
  static ByteBuffer Acquire();

  // Returns `buffer` to the pool for reuse; drops it if the pool is full.
  static void Release(ByteBuffer buffer);

 private:
  static constexpr std::size_t kMaxPooled = 8;
};

struct MethodResult {
  Status status;
  ByteBuffer payload;

  std::size_t WireSize() const { return kHeaderBytes + payload.size(); }

  static MethodResult Ok(ByteBuffer payload = {}) {
    return MethodResult{Status::Ok(), std::move(payload)};
  }
  static MethodResult Error(Status status) {
    return MethodResult{std::move(status), {}};
  }
};

}  // namespace dcdo::rpc
