#include "dfm/mapper.h"

#include <mutex>

#include "check/check_context.h"

namespace dcdo {

// The body never changes after construction (RemapBodies builds a fresh
// record), so in-flight guards may read it without synchronization. The
// counter lives behind its own shared_ptr so RemapBodies can carry it over
// into the replacement record: remapping does not end in-flight calls, and
// their active counts must keep showing up in ActiveCount/TotalActive.
struct DfmImplShared {
  DfmImplShared(DynamicFn fn, std::shared_ptr<std::atomic<int>> counter)
      : body(std::move(fn)), active(std::move(counter)) {}
  const DynamicFn body;
  const std::shared_ptr<std::atomic<int>> active;
};

namespace {
const std::string& EmptyName() {
  static const std::string empty;
  return empty;
}
}  // namespace

DynamicFunctionMapper::CallGuard& DynamicFunctionMapper::CallGuard::operator=(
    CallGuard&& other) noexcept {
  if (this != &other) {
    Release();
    mapper_ = other.mapper_;
    name_ = other.name_;
    function_id_ = other.function_id_;
    component_ = other.component_;
    impl_ = std::move(other.impl_);
    other.mapper_ = nullptr;
  }
  return *this;
}

const DynamicFn& DynamicFunctionMapper::CallGuard::body() const {
  return impl_->body;
}

const std::string& DynamicFunctionMapper::CallGuard::function() const {
  return name_ != nullptr ? *name_ : EmptyName();
}

void DynamicFunctionMapper::CallGuard::ReleaseSlow() {
  DynamicFunctionMapper* mapper = mapper_;
  mapper_ = nullptr;
  // Close the checker's ledger entry *before* dropping the active count: a
  // configuration change that observes the count at zero must also find the
  // invocation already ended, or a quiescence-respecting removal would be
  // misreported as overlapping a live call.
  if (!mapper->check_owner_.nil()) {
    DCDO_CHECK_HOOK(OnCallEnd(mapper->check_owner_, *name_, component_));
  }
  // Lock-free: the guard owns a reference to its implementation record,
  // which outlives even a forced removal of the component.
  impl_->active->fetch_sub(1, std::memory_order_acq_rel);
  impl_.reset();
}

DynamicFunctionMapper::AcquireReject DynamicFunctionMapper::TryAcquireLocked(
    const Slot* slot, FunctionId id, CallOrigin origin, CallGuard& guard) {
  if (slot == nullptr || !slot->any_present) return AcquireReject::kMissing;
  if (!slot->enabled) return AcquireReject::kDisabled;
  if (origin == CallOrigin::kExternal &&
      slot->visibility != Visibility::kExported) {
    return AcquireReject::kNotExported;
  }
  if (slot->impl == nullptr) return AcquireReject::kNoBody;
  // The hot path: one increment on the impl's counter plus one shared_ptr
  // refcount bump; no string is copied or allocated.
  slot->impl->active->fetch_add(1, std::memory_order_acq_rel);
  calls_resolved_.fetch_add(1, std::memory_order_relaxed);
  guard.mapper_ = this;
  guard.name_ = slot->name;
  guard.function_id_ = id;
  guard.component_ = slot->component;
  guard.impl_ = slot->impl;
  return AcquireReject::kNone;
}

Status DynamicFunctionMapper::RejectError(AcquireReject reject,
                                          std::string_view name) {
  std::string quoted(name);
  switch (reject) {
    case AcquireReject::kDisabled:
      return FunctionDisabledError("'" + quoted + "' is disabled");
    case AcquireReject::kNotExported:
      // External callers cannot tell internal-only from absent.
      return FunctionMissingError("no exported function '" + quoted + "'");
    case AcquireReject::kNoBody:
      return InternalError("enabled '" + quoted + "' has no resolved body");
    case AcquireReject::kMissing:
    case AcquireReject::kNone:
    default:
      return FunctionMissingError("no implementation of '" + quoted + "'");
  }
}

Result<DynamicFunctionMapper::CallGuard> DynamicFunctionMapper::Acquire(
    std::string_view function, CallOrigin origin) {
  AcquireReject reject;
  CallGuard guard;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    // One hash probe against the mapper's own index — no round-trip through
    // the global intern table on the call path.
    auto it = name_index_.find(function);
    reject = it == name_index_.end()
                 ? AcquireReject::kMissing
                 : TryAcquireLocked(&slots_[it->second.value], it->second,
                                    origin, guard);
  }
  if (reject == AcquireReject::kNone) {
    if (!check_owner_.nil()) {
      DCDO_CHECK_HOOK(OnCallStart(check_owner_, *guard.name_,
                                  guard.component_));
    }
    return guard;
  }
  calls_rejected_.fetch_add(1, std::memory_order_relaxed);
  return RejectError(reject, function);
}

Result<DynamicFunctionMapper::CallGuard> DynamicFunctionMapper::Acquire(
    FunctionId function, CallOrigin origin) {
  AcquireReject reject;
  CallGuard guard;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const Slot* slot = function.valid() && function.value < slots_.size()
                           ? &slots_[function.value]
                           : nullptr;
    reject = TryAcquireLocked(slot, function, origin, guard);
  }
  if (reject == AcquireReject::kNone) {
    if (!check_owner_.nil()) {
      DCDO_CHECK_HOOK(OnCallStart(check_owner_, *guard.name_,
                                  guard.component_));
    }
    return guard;
  }
  calls_rejected_.fetch_add(1, std::memory_order_relaxed);
  return RejectError(reject,
                     function.valid()
                         ? std::string_view(
                               FunctionNameTable::Global().NameOf(function))
                         : std::string_view(EmptyName()));
}

void DynamicFunctionMapper::DeriveSlotLocked(const std::string& function) {
  // Derived from the authoritative DfmState: the slot summarizes "who
  // services a call to F" for the shared-lock readers.
  FunctionNameTable& names = FunctionNameTable::Global();
  FunctionId id = names.Intern(function);
  if (id.value >= slots_.size()) slots_.resize(id.value + 1);
  Slot& slot = slots_[id.value];
  slot = Slot{};
  if (!state_.AnyImplPresent(function)) return;
  slot.any_present = true;
  slot.name = &names.NameOf(id);
  // name_index_ is insert-only: a name's interned id is stable for the life
  // of the process, and an index entry for a function no longer present
  // resolves to a slot with any_present=false — the same kMissing a map
  // miss yields.
  name_index_.try_emplace(std::string_view(*slot.name), id);
  const DfmEntry* entry = state_.EnabledImpl(function);
  if (entry == nullptr) return;
  slot.enabled = true;
  slot.visibility = entry->visibility;
  slot.component = entry->component;
  auto impl = impls_.find({function, entry->component});
  if (impl != impls_.end()) slot.impl = impl->second;
}

void DynamicFunctionMapper::DeriveAllSlotsLocked() {
  // Rows arrive grouped by function; derive each function's slot once.
  const std::string* previous = nullptr;
  for (const DfmEntry* entry : state_.AllEntries()) {
    if (previous != nullptr && *previous == entry->function.name) continue;
    previous = &entry->function.name;
    DeriveSlotLocked(entry->function.name);
  }
}

Status DynamicFunctionMapper::IncorporateComponent(
    const ImplementationComponent& meta, const NativeCodeRegistry& registry,
    sim::Architecture arch, bool auto_structural_deps) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!meta.type.CompatibleWith(arch)) {
    return ArchMismatchError(
        "component " + meta.name + " (" + meta.type.ToString() +
        ") is incompatible with host architecture " +
        std::string(sim::ArchitectureName(arch)));
  }
  // Resolve every symbol before mutating anything (all-or-nothing).
  std::map<DfmState::EntryKey, std::shared_ptr<DfmImplShared>> resolved;
  for (const FunctionImplDescriptor& fn : meta.functions) {
    DCDO_ASSIGN_OR_RETURN(DynamicFn body, registry.Resolve(fn.symbol, arch));
    resolved[{fn.function.name, meta.id}] = std::make_shared<DfmImplShared>(
        std::move(body), std::make_shared<std::atomic<int>>(0));
  }
  DCDO_RETURN_IF_ERROR(
      state_.IncorporateComponent(meta, auto_structural_deps));
  impls_.merge(resolved);
  for (const FunctionImplDescriptor& fn : meta.functions) {
    DeriveSlotLocked(fn.function.name);
  }
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::RemoveComponent(const ObjectId& component,
                                              ActiveThreadPolicy policy) {
  bool had_active = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // Held across the removal: the state drops its reference.
    std::shared_ptr<const ImplementationComponent> meta =
        state_.SharedComponent(component);
    if (meta == nullptr) return state_.RemoveComponent(component);
    for (const FunctionImplDescriptor& fn : meta->functions) {
      auto it = impls_.find({fn.function.name, component});
      if (it == impls_.end()) continue;
      int count = it->second->active->load(std::memory_order_acquire);
      if (count <= 0) continue;
      if (policy == ActiveThreadPolicy::kError) {
        return ActiveThreadsError("function '" + fn.function.name +
                                  "' in component " + component.ToString() +
                                  " has " + std::to_string(count) +
                                  " active thread(s)");
      }
      had_active = true;
    }
    DCDO_RETURN_IF_ERROR(state_.RemoveComponent(component));
    for (const FunctionImplDescriptor& fn : meta->functions) {
      impls_.erase({fn.function.name, component});
      DeriveSlotLocked(fn.function.name);
    }
    BumpVersion();
  }
  if (!check_owner_.nil()) {
    // "forced" means the removal actually overrode live threads, not merely
    // that the caller passed kForce.
    DCDO_CHECK_HOOK(OnComponentRemoved(check_owner_, component, had_active));
  }
  return Status::Ok();
}

Status DynamicFunctionMapper::EnableFunction(const std::string& function,
                                             const ObjectId& component) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  DCDO_RETURN_IF_ERROR(state_.EnableFunction(function, component));
  DeriveSlotLocked(function);
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::DisableFunction(const std::string& function,
                                              const ObjectId& component,
                                              bool respect_active_dependents) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (respect_active_dependents) {
    for (const Dependency* dep : state_.dependencies().BindingDependenciesOn(
             function, component, state_.Enabled())) {
      // The dependent function is enabled; is a thread inside it right now?
      const std::string& dependent = dep->dependent;
      for (auto it = impls_.lower_bound({dependent, ObjectId()});
           it != impls_.end() && it->first.first == dependent; ++it) {
        int count = it->second->active->load(std::memory_order_acquire);
        if (count <= 0) continue;
        if (dep->dependent_component.has_value() &&
            *dep->dependent_component != it->first.second) {
          continue;
        }
        return ActiveThreadsError(
            "cannot disable '" + function + "': dependent '" + dependent +
            "' has " + std::to_string(count) + " active thread(s) (" +
            dep->ToString() + ")");
      }
    }
  }
  DCDO_RETURN_IF_ERROR(state_.DisableFunction(function, component));
  DeriveSlotLocked(function);
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::SwitchImplementation(
    const std::string& function, const ObjectId& to_component) {
  ObjectId from_component;
  int active_on_from = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (const DfmEntry* enabled = state_.EnabledImpl(function)) {
      from_component = enabled->component;
      auto it = impls_.find({function, from_component});
      if (it != impls_.end()) {
        active_on_from = it->second->active->load(std::memory_order_acquire);
      }
    }
    DCDO_RETURN_IF_ERROR(state_.SwitchImplementation(function, to_component));
    DeriveSlotLocked(function);
    BumpVersion();
  }
  if (!check_owner_.nil() && !from_component.nil() &&
      from_component != to_component) {
    DCDO_CHECK_HOOK(OnImplSwapped(check_owner_, function, from_component,
                                  to_component, active_on_from));
  }
  return Status::Ok();
}

Status DynamicFunctionMapper::SetVisibility(const std::string& function,
                                            const ObjectId& component,
                                            Visibility visibility) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  DCDO_RETURN_IF_ERROR(state_.SetVisibility(function, component, visibility));
  DeriveSlotLocked(function);
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::MarkMandatory(const std::string& function) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return state_.MarkMandatory(function);
}

Status DynamicFunctionMapper::MarkPermanent(const std::string& function,
                                            const ObjectId& component) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // MarkPermanent may switch the enabled implementation as a side effect.
  DCDO_RETURN_IF_ERROR(state_.MarkPermanent(function, component));
  DeriveSlotLocked(function);
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::AddDependency(Dependency dep) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return state_.AddDependency(std::move(dep));
}

Status DynamicFunctionMapper::RemoveDependency(const Dependency& dep) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return state_.RemoveDependency(dep);
}

Status DynamicFunctionMapper::AdoptConfiguration(const DfmState& target,
                                                 bool enforce_marks) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  DCDO_RETURN_IF_ERROR(state_.AdoptConfiguration(target, enforce_marks));
  DeriveAllSlotsLocked();
  BumpVersion();
  return Status::Ok();
}

Status DynamicFunctionMapper::SyncMetadata(const DfmState& target) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Whatever happens below, leave the slot table mirroring state_: a failed
  // sync may have applied some visibilities before erroring out.
  struct Resync {
    DynamicFunctionMapper* self;
    ~Resync() {
      self->DeriveAllSlotsLocked();
      self->BumpVersion();
    }
  } resync{this};
  // Precondition: component and entry sets match the target.
  if (state_.component_count() != target.component_count() ||
      state_.entry_count() != target.entry_count()) {
    return FailedPreconditionError(
        "SyncMetadata: entry/component sets do not match the target");
  }
  for (const DfmEntry* entry : target.AllEntries()) {
    const DfmEntry* mine =
        state_.FindEntry(entry->function.name, entry->component);
    if (mine == nullptr) {
      return FailedPreconditionError("SyncMetadata: missing entry for '" +
                                     entry->function.name + "'");
    }
    if (mine->enabled != entry->enabled) {
      return FailedPreconditionError(
          "SyncMetadata: enablement of '" + entry->function.name +
          "' does not match the target (apply the plan first)");
    }
  }
  // Rebuild metadata to match the target exactly. Visibility first, then
  // constraints, then dependencies (validated against the final snapshot).
  for (const DfmEntry* entry : target.AllEntries()) {
    DCDO_RETURN_IF_ERROR(state_.SetVisibility(
        entry->function.name, entry->component, entry->visibility));
  }
  for (const std::string& function : target.mandatory_functions()) {
    DCDO_RETURN_IF_ERROR(state_.MarkMandatory(function));
  }
  for (const DfmEntry* entry : target.AllEntries()) {
    if (entry->permanent) {
      DCDO_RETURN_IF_ERROR(
          state_.MarkPermanent(entry->function.name, entry->component));
    }
  }
  // Remove dependencies the target no longer has (collect first — removal
  // mutates the set being iterated).
  std::vector<Dependency> stale;
  for (const Dependency& dep : state_.dependencies().all()) {
    bool in_target = false;
    for (const Dependency& tdep : target.dependencies().all()) {
      if (tdep == dep) {
        in_target = true;
        break;
      }
    }
    if (!in_target) stale.push_back(dep);
  }
  for (const Dependency& dep : stale) {
    DCDO_RETURN_IF_ERROR(state_.RemoveDependency(dep));
  }
  for (const Dependency& dep : target.dependencies().all()) {
    DCDO_RETURN_IF_ERROR(state_.AddDependency(dep));
  }
  return Status::Ok();
}

Status DynamicFunctionMapper::RemapBodies(const NativeCodeRegistry& registry,
                                          sim::Architecture arch) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::map<DfmState::EntryKey, std::shared_ptr<DfmImplShared>> remapped;
  for (const ObjectId& component_id : state_.ComponentIds()) {
    const ImplementationComponent* meta = state_.FindComponent(component_id);
    if (!meta->type.CompatibleWith(arch)) {
      return ArchMismatchError("component " + meta->name + " (" +
                               meta->type.ToString() +
                               ") cannot be mapped on " +
                               std::string(sim::ArchitectureName(arch)));
    }
    for (const FunctionImplDescriptor& fn : meta->functions) {
      DCDO_ASSIGN_OR_RETURN(DynamicFn body, registry.Resolve(fn.symbol, arch));
      // Keep the existing counter: remapping does not end in-flight calls,
      // and their counts must survive into the replacement record.
      auto existing = impls_.find({fn.function.name, component_id});
      remapped[{fn.function.name, component_id}] =
          std::make_shared<DfmImplShared>(
              std::move(body),
              existing != impls_.end()
                  ? existing->second->active
                  : std::make_shared<std::atomic<int>>(0));
    }
  }
  impls_ = std::move(remapped);
  DeriveAllSlotsLocked();
  BumpVersion();
  return Status::Ok();
}

int DynamicFunctionMapper::ActiveCount(const std::string& function,
                                       const ObjectId& component) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = impls_.find({function, component});
  return it == impls_.end()
             ? 0
             : it->second->active->load(std::memory_order_acquire);
}

int DynamicFunctionMapper::TotalActive() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  int total = 0;
  for (const auto& [key, record] : impls_) {
    total += record->active->load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace dcdo
