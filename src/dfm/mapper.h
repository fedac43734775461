// DynamicFunctionMapper: the runtime DFM inside every DCDO (paper Section 2).
//
// "A DFM serves as a centralized table through which all calls to dynamic
// functions must go." Callers never hold a raw function pointer across
// configuration changes; they Acquire() the ability to call a function, run
// the body, and release. Acquire is the single level of indirection the
// paper identifies as "the basis and the key enabler of dynamic
// configurability" — and also the hook for thread-activity monitoring: the
// returned RAII guard keeps the per-implementation active-thread count
// nonzero for exactly the duration of the call.
//
// The call path is read-mostly and lock-light. Function names are interned
// into dense FunctionIds (function_id.h); the mapper keeps a flat slot table
// indexed by FunctionId whose slots hold the enabled body, its visibility,
// and a per-implementation atomic active-thread counter. Acquire on the hot
// path is a shared-lock slot read plus one relaxed atomic increment; Release
// is a single atomic decrement with no lock at all. Configuration mutations
// take the exclusive side of the same std::shared_mutex, re-derive only the
// slots they touched from the authoritative DfmState, and bump a version
// stamp: enable / disable / switch / set-visibility / mark-permanent patch
// one function's slot, incorporate / remove patch the component's
// functions, and only the wholesale moves (adopt / metadata sync / remap)
// re-derive every slot — through the same per-function routine. Each
// mutation validates its dependencies against a zero-copy overlay of the
// table (DfmState::Overlay), so a single-function change costs
// O(log n + dependency list), not O(table). The paper's semantics are
// untouched: the error taxonomy (kFunctionMissing / kFunctionDisabled /
// kActiveThreads), the visibility rules, and the checker hooks all behave
// exactly as before — only the constant factor of the indirection changed.
//
// The mapper owns a DfmState (the same table type managers use in
// descriptors; component metadata in it is shared with the descriptor the
// instance last adopted) plus what only the runtime needs: resolved bodies
// from the NativeCodeRegistry, active-thread counts, and call statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "component/native_code_registry.h"
#include "dfm/descriptor.h"
#include "dfm/function_id.h"
#include "dfm/state.h"

namespace dcdo {

// One incorporated implementation row: the resolved body plus its
// active-thread counter. Defined in mapper.cc; guards pin a whole record
// with a single shared_ptr, so acquire/release touch one refcount, not two.
struct DfmImplShared;

// Who is asking: external callers may only reach exported functions.
enum class CallOrigin : std::uint8_t { kExternal, kInternal };

// What to do when a configuration change collides with active threads
// (paper Section 3.2, thread activity monitoring): reject, or proceed
// anyway (the caller implements delay/timeout on top of kError).
enum class ActiveThreadPolicy : std::uint8_t { kError, kForce };

class DynamicFunctionMapper {
 public:
  DynamicFunctionMapper() = default;
  DynamicFunctionMapper(const DynamicFunctionMapper&) = delete;
  DynamicFunctionMapper& operator=(const DynamicFunctionMapper&) = delete;

  // RAII "ability to call": holds the body and pins the active-thread count.
  // The body remains valid for the guard's lifetime even if the function is
  // disabled — or its whole component force-removed — mid-call; the paper
  // notes "there is no reason why a thread cannot proceed inside a
  // deactivated function; the code still exists." The guard carries a slot
  // handle (interned-name pointer, one shared impl record), not owned
  // strings: constructing and destroying one allocates nothing.
  class CallGuard {
   public:
    CallGuard() = default;
    CallGuard(CallGuard&& other) noexcept { *this = std::move(other); }
    CallGuard& operator=(CallGuard&& other) noexcept;
    CallGuard(const CallGuard&) = delete;
    CallGuard& operator=(const CallGuard&) = delete;
    ~CallGuard() { Release(); }

    const DynamicFn& body() const;
    const ObjectId& component() const { return component_; }
    const std::string& function() const;
    FunctionId function_id() const { return function_id_; }
    bool valid() const { return mapper_ != nullptr; }

    // Returning a guard through Result<CallGuard> leaves a trail of
    // moved-from shells whose destructors all land here; keep the empty
    // check inline so only the one live guard pays the out-of-line release.
    void Release() {
      if (mapper_ != nullptr) ReleaseSlow();
    }

   private:
    friend class DynamicFunctionMapper;
    void ReleaseSlow();

    DynamicFunctionMapper* mapper_ = nullptr;
    const std::string* name_ = nullptr;  // interned; stable for process life
    FunctionId function_id_;
    ObjectId component_;
    // One refcount covers both the body and the active counter.
    std::shared_ptr<DfmImplShared> impl_;
  };

  // --- The call path ---

  // Resolves `function` to its enabled implementation. Error taxonomy matches
  // the paper's problem classes: kFunctionMissing when no implementation is
  // present, kFunctionDisabled when implementations exist but none is
  // enabled, and kFunctionMissing for external calls to internal-only
  // functions (an outsider cannot distinguish "internal" from "absent").
  [[nodiscard]] Result<CallGuard> Acquire(std::string_view function, CallOrigin origin);

  // The pre-resolved fast path: callers that hold an interned FunctionId
  // (method tables, proxies, repeated dispatch) skip the name lookup.
  [[nodiscard]] Result<CallGuard> Acquire(FunctionId function, CallOrigin origin);

  // --- Configuration (a DCDO's configuration functions land here) ---

  // Incorporates `meta`, resolving every symbol against `registry` for
  // `arch`. All-or-nothing: a single unresolved or arch-incompatible symbol
  // fails the whole incorporate.
  [[nodiscard]] Status IncorporateComponent(const ImplementationComponent& meta,
                              const NativeCodeRegistry& registry,
                              sim::Architecture arch,
                              bool auto_structural_deps = true);

  // Removes a component. With kError, fails with kActiveThreads if any of
  // the component's implementations has a thread inside it (the
  // disappearing-component guard); kForce removes regardless.
  [[nodiscard]] Status RemoveComponent(const ObjectId& component,
                         ActiveThreadPolicy policy = ActiveThreadPolicy::kError);

  [[nodiscard]] Status EnableFunction(const std::string& function, const ObjectId& component);

  // Disables an implementation. When `respect_active_dependents`, the
  // disable is additionally rejected with kActiveThreads while any function
  // holding a binding dependency on this implementation is executing —
  // the paper's defence against the disappearing internal function problem.
  [[nodiscard]] Status DisableFunction(const std::string& function, const ObjectId& component,
                         bool respect_active_dependents = true);

  [[nodiscard]] Status SwitchImplementation(const std::string& function,
                              const ObjectId& to_component);
  [[nodiscard]] Status SetVisibility(const std::string& function, const ObjectId& component,
                       Visibility visibility);
  [[nodiscard]] Status MarkMandatory(const std::string& function);
  [[nodiscard]] Status MarkPermanent(const std::string& function, const ObjectId& component);
  [[nodiscard]] Status AddDependency(Dependency dep);
  [[nodiscard]] Status RemoveDependency(const Dependency& dep);

  // Atomic wholesale move to `target`'s configuration (enabled flags,
  // visibility, marks, dependencies) after new components have been
  // incorporated; see DfmState::AdoptConfiguration for semantics.
  [[nodiscard]] Status AdoptConfiguration(const DfmState& target, bool enforce_marks);

  // After an evolution plan has been applied, adopts the target
  // configuration's metadata wholesale: mandatory markings, permanent flags,
  // visibilities, and the dependency set. The entry/component sets must
  // already match the target; kFailedPrecondition otherwise.
  [[nodiscard]] Status SyncMetadata(const DfmState& target);

  // Re-resolves every incorporated implementation against `registry` for a
  // (possibly different) architecture — the re-mapping step of migration.
  // Fails with kArchMismatch if any incorporated component has no build
  // usable on `arch`; the mapper is unchanged on failure.
  [[nodiscard]] Status RemapBodies(const NativeCodeRegistry& registry,
                     sim::Architecture arch);

  // --- Status reporting ---

  const DfmState& state() const { return state_; }
  int ActiveCount(const std::string& function, const ObjectId& component) const;
  int TotalActive() const;
  std::uint64_t calls_resolved() const {
    return calls_resolved_.load(std::memory_order_relaxed);
  }
  std::uint64_t calls_rejected() const {
    return calls_rejected_.load(std::memory_order_relaxed);
  }

  // Monotone stamp bumped by every successful configuration mutation; two
  // equal stamps bracket a window in which the slot table did not change.
  std::uint64_t table_version() const {
    return table_version_.load(std::memory_order_acquire);
  }

  // Names the DCDO this mapper belongs to for the checking layer; while set
  // (non-nil), call starts/ends, removals and implementation swaps are
  // reported to the installed CheckContext. Hooks fire after the table lock
  // is released, so checker evaluations may call back into const accessors.
  void SetCheckOwner(const ObjectId& owner) { check_owner_ = owner; }
  const ObjectId& check_owner() const { return check_owner_; }

 private:
  // The per-function slot the hot path reads: a digest of DfmState's answer
  // to "which implementation services a call to F right now". The impl
  // record (body + active counter, one shared allocation) lives behind a
  // shared_ptr so in-flight guards keep it alive across disables, switches,
  // and even forced removals.
  struct Slot {
    bool any_present = false;  // some implementation exists (disabled counts)
    bool enabled = false;      // an implementation is enabled
    Visibility visibility = Visibility::kExported;
    ObjectId component;                 // of the enabled implementation
    const std::string* name = nullptr;  // interned name
    std::shared_ptr<DfmImplShared> impl;  // enabled implementation's record
  };

  // Why Acquire declined, decided under the shared lock; the error message
  // (which allocates) is built only after the lock is dropped.
  enum class AcquireReject : std::uint8_t {
    kNone,
    kMissing,
    kDisabled,
    kNotExported,
    kNoBody,
  };

  // The shared-lock core of both Acquire overloads: classifies `slot` and,
  // on success, pins the implementation into `guard`.
  AcquireReject TryAcquireLocked(const Slot* slot, FunctionId id,
                                 CallOrigin origin, CallGuard& guard);
  [[nodiscard]] static Status RejectError(AcquireReject reject, std::string_view name);

  // Re-derives `function`'s slot from state_ + impls_; the one place slots
  // are written. Caller holds the exclusive lock.
  void DeriveSlotLocked(const std::string& function);
  // DeriveSlotLocked for every function the state holds: the full rebuild
  // behind wholesale moves (adopt, metadata sync, remap).
  void DeriveAllSlotsLocked();
  void BumpVersion() {
    table_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  ObjectId check_owner_;  // nil: unowned (raw unit-test mappers), no hooks
  mutable std::shared_mutex mutex_;
  DfmState state_;
  // Mutation-path store, keyed like DfmState rows; the hot path never
  // touches it — it reads the shared_ptrs out of slots_.
  std::map<DfmState::EntryKey, std::shared_ptr<DfmImplShared>> impls_;
  std::vector<Slot> slots_;  // indexed by FunctionId::value
  // Name-keyed entry to the slot table, so string Acquire pays one hash
  // lookup under the mapper's own shared lock instead of a second
  // lock/unlock round-trip through the global intern table. Keys view
  // interner storage, which is stable for the life of the process. The index
  // is insert-only: entries for functions no longer present point at slots
  // with any_present=false, which reject identically to a map miss.
  std::unordered_map<std::string_view, FunctionId, FunctionNameHash>
      name_index_;
  std::atomic<std::uint64_t> table_version_{0};
  std::atomic<std::uint64_t> calls_resolved_{0};
  std::atomic<std::uint64_t> calls_rejected_{0};
};

}  // namespace dcdo
