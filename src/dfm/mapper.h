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
// into FunctionIds (function_id.h) once, when a component joins a table,
// and every row carries its id; the mapper keeps one slot per function it
// holds, in a dense array sized by its own functions — not by the
// process-global id range — finds and adds slots by the rows' ids, and
// reaches a slot through two small open-addressed indexes, one keyed by
// FunctionId and one by name. A slot holds the enabled implementation's
// record, its
// visibility and its component. Implementations live in one record block
// per component (the resolved bodies, in the component's function order,
// plus their active-thread counters); a CallGuard pins the block through an
// aliasing shared_ptr to its own record. Acquire by id is a shared-lock
// index probe and slot read plus one atomic increment on the record's
// counter and one on the block's refcount, with no allocation; Release is a
// single atomic decrement with no lock at all. Configuration mutations take
// the exclusive side of the same std::shared_mutex, re-derive only the
// slots they touched from the authoritative DfmState, and bump a version
// stamp: enable / disable / switch / set-visibility / mark-permanent patch
// one function's slot, incorporate / remove patch the component's
// functions, and only the wholesale moves (commit / remap) re-derive every
// slot — through the same per-function routine. Each mutation validates its
// dependencies against a zero-copy overlay of the table
// (DfmState::Overlay), so a single-function change costs O(log n +
// dependency list), not O(table). The paper's semantics are untouched: the
// error taxonomy (kFunctionMissing / kFunctionDisabled / kActiveThreads),
// the visibility rules, and the checker hooks all behave exactly as before
// — only the constant factor of the indirection changed.
//
// An evolution, creation included, does not touch the table while its
// components arrive: its target descriptor already holds the table the
// paper says a DFM mirrors, so each added component's bodies are resolved
// as its image lands (ResolveComponent), and one commit then swaps the
// whole target in (CommitConfiguration). Callers see the old configuration
// or the new one, never a mix.
//
// The mapper owns a DfmState (the same table type managers use in
// descriptors; its rows point into the component records it was handed,
// which on every acquisition path are the version descriptor's own) plus
// what only the runtime needs: the record blocks, the slots, and call
// statistics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "component/native_code_registry.h"
#include "dfm/descriptor.h"
#include "dfm/function_id.h"
#include "dfm/state.h"

namespace dcdo {

// One implementation's resolved body and active-thread counter, inside its
// component's record block. Both are defined in mapper.cc; a guard pins the
// block with one aliasing shared_ptr to its record, so acquire/release touch
// one refcount and one counter.
struct DfmImplRecord;
struct DfmImplBlock;

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
  // handle (interned-name pointer, a pin on the component's record block),
  // not owned strings: constructing and destroying one allocates nothing.
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
    // Aliases the record; owns a reference to the whole block, which
    // carries the body and the counter.
    std::shared_ptr<const DfmImplRecord> impl_;
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
  // fails the whole incorporate. The table keeps `meta` itself as the
  // component's record (state().SharedComponent returns it). Only the
  // slots whose answer changes are re-derived: a new row is disabled, so
  // its function's slot just learns an implementation is present — unless
  // the author marked it permanent, which incorporate enables.
  [[nodiscard]] Status IncorporateComponent(ComponentRecord meta,
                                            const NativeCodeRegistry& registry,
                                            sim::Architecture arch,
                                            bool auto_structural_deps = true);
  // The same, for metadata held by value: makes its record, once.
  [[nodiscard]] Status IncorporateComponent(const ImplementationComponent& meta,
                                            const NativeCodeRegistry& registry,
                                            sim::Architecture arch,
                                            bool auto_structural_deps = true) {
    return IncorporateComponent(
        std::make_shared<const ImplementationComponent>(meta), registry, arch,
        auto_structural_deps);
  }

  // A component's bodies resolved for one architecture, waiting to be
  // committed; opaque outside the mapper.
  using ResolvedComponent = std::shared_ptr<DfmImplBlock>;

  // Resolves every symbol of `meta` for `arch` with IncorporateComponent's
  // checks and errors — kArchMismatch for a component built for another
  // architecture, the registry's error for a symbol without a usable body —
  // and touches no table.
  [[nodiscard]] static Result<ResolvedComponent> ResolveComponent(
      const ImplementationComponent& meta, const NativeCodeRegistry& registry,
      sim::Architecture arch);

  // Moves the table to `target`, a complete configuration, in one step;
  // `staged` holds the bodies resolved for the target components the table
  // lacks, in any order. Validates first, against the table as it stands:
  // every target component is staged or still incorporated, the marks and
  // kept records pass DfmState::EvolvedTo, and, with kError, no component
  // the target drops has a thread inside it (kActiveThreads). Then, under
  // one writer lock, the target and its records become the table, kept
  // components keep their blocks (and in-flight counts), every slot is
  // re-derived (a function that left answers kFunctionMissing) and each
  // dropped component is reported removed. On success the table takes
  // `target` and `staged` over; on failure nothing changes and both still
  // describe the move, so a caller may retry it.
  [[nodiscard]] Status CommitConfiguration(
      DfmState& target, std::vector<ResolvedComponent>& staged,
      bool enforce_marks,
      ActiveThreadPolicy policy = ActiveThreadPolicy::kError);

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

  // Names the DCDO this mapper belongs to for the instrumentation stream;
  // while set (non-nil), call starts/ends, removals and implementation swaps
  // are reported to the installed context. Facts fire after the table lock
  // is released, so checker evaluations may call back into const accessors.
  void SetCheckOwner(const ObjectId& owner) { check_owner_ = owner; }
  const ObjectId& check_owner() const { return check_owner_; }

 private:
  // The per-function slot the hot path reads: a digest of DfmState's answer
  // to "which implementation services a call to F right now". The block
  // pointer keeps the enabled implementation's record alive for in-flight
  // guards across disables, switches, and even forced removals. A function
  // keeps its slot after its last implementation leaves (any_present goes
  // false), so slot indexes never move.
  struct Slot {
    const std::string* name = nullptr;  // interned; stable for process life
    FunctionId id;
    bool any_present = false;  // some implementation exists (disabled counts)
    bool enabled = false;      // an implementation is enabled
    Visibility visibility = Visibility::kExported;
    ObjectId component;  // of the enabled implementation
    std::shared_ptr<const DfmImplBlock> block;  // that component's block
    const DfmImplRecord* record = nullptr;      // inside `block`
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Why Acquire declined, decided under the shared lock; the error message
  // (which allocates) is built only after the lock is dropped.
  enum class AcquireReject : std::uint8_t {
    kNone,
    kMissing,
    kDisabled,
    kNotExported,
    kNoBody,
  };

  // The shared-lock core of both Acquire overloads: classifies `slot` (null:
  // no slot) and, on success, pins the implementation into `guard`.
  AcquireReject TryAcquireLocked(const Slot* slot, CallOrigin origin,
                                 CallGuard& guard);
  [[nodiscard]] static Status RejectError(AcquireReject reject, std::string_view name);

  // Slot lookups through the open-addressed indexes; kNoSlot on a miss.
  std::uint32_t FindSlotLocked(FunctionId id) const;
  std::uint32_t FindSlotLocked(std::string_view name) const;
  std::size_t Bucket(std::uint64_t hash) const {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }
  // Function `id`'s slot, added on first sight. Caller holds the exclusive
  // lock.
  std::uint32_t SlotForLocked(FunctionId id);
  // Grows both indexes, if needed, to hold `slots` slots at most half full,
  // re-entering every slot.
  void ReserveIndexLocked(std::size_t slots);
  // Enters slots_[slot] into both indexes, which have a free bucket.
  void IndexSlotLocked(std::uint32_t slot);
  // Re-derives `function`'s slot from state_ and blocks_; apart from the
  // presence bit incorporate sets, the one place slots are written. Caller
  // holds the exclusive lock.
  void DeriveSlotLocked(const std::string& function);
  void DeriveSlotLocked(Slot& slot, std::span<const DfmEntry> rows);
  // DeriveSlotLocked for every function the state holds, adding the slots
  // a commit meets first: the full rebuild behind wholesale moves (commit,
  // remap).
  void DeriveAllSlotsLocked();
  void BumpVersion() {
    table_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  // The block of `component`, or null.
  const std::shared_ptr<DfmImplBlock>* FindBlockLocked(
      const ObjectId& component) const;
  // The active-thread count of `row`'s implementation.
  int ActiveLocked(const DfmEntry& row) const;

  ObjectId check_owner_;  // nil: unowned (raw unit-test mappers), no hooks
  mutable std::shared_mutex mutex_;
  DfmState state_;
  // One record block per incorporated component, sorted by component id.
  // The hot path never touches this array — it reads the blocks out of
  // slots_.
  std::vector<std::shared_ptr<DfmImplBlock>> blocks_;
  std::vector<Slot> slots_;  // one per function, in first-seen order
  // Power-of-two tables of slot indexes, at most half full, probed
  // linearly from a Fibonacci hash of the FunctionId or of the name. Sized
  // by this mapper's functions, not by the process-global FunctionId range,
  // so an instance of a late type pays nothing for names other types
  // interned.
  std::vector<std::uint32_t> id_index_;
  std::vector<std::uint32_t> name_index_;
  int index_shift_ = 64;  // 64 - log2(index size)
  std::atomic<std::uint64_t> table_version_{0};
  std::atomic<std::uint64_t> calls_resolved_{0};
  std::atomic<std::uint64_t> calls_rejected_{0};
};

}  // namespace dcdo
