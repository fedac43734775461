#include "dfm/mapper.h"

#include <algorithm>
#include <bit>
#include <mutex>

#include "instrument/context.h"

namespace dcdo {

// Records never change after their block is built (RemapBodies builds a
// fresh block), so in-flight guards may read a body without synchronization.
// The counters live in their own array, which RemapBodies hands to the
// replacement block: remapping does not end in-flight calls, and their
// active counts must keep showing up in ActiveCount/TotalActive.
struct DfmImplRecord {
  DynamicFn body;
  std::atomic<int>* active;  // into the block's counter array
};

struct DfmImplBlock {
  ObjectId component;
  std::shared_ptr<std::atomic<int>[]> counters;
  std::vector<DfmImplRecord> records;  // in the component's function order
};

namespace {
// Resolves every function of `meta` for `arch` into a fresh block counting
// with `counters` (a new zeroed array when null). Fails on the first
// unresolved symbol.
Result<std::shared_ptr<DfmImplBlock>> BuildBlock(
    const ImplementationComponent& meta, const NativeCodeRegistry& registry,
    sim::Architecture arch, std::shared_ptr<std::atomic<int>[]> counters) {
  auto block = std::make_shared<DfmImplBlock>();
  block->component = meta.id;
  block->counters = counters != nullptr
                        ? std::move(counters)
                        : std::shared_ptr<std::atomic<int>[]>(
                              new std::atomic<int>[meta.functions.size()]());
  block->records.reserve(meta.functions.size());
  for (const FunctionImplDescriptor& fn : meta.functions) {
    DCDO_ASSIGN_OR_RETURN(DynamicFn body, registry.Resolve(fn.symbol, arch));
    block->records.push_back(
        {std::move(body), &block->counters[block->records.size()]});
  }
  return block;
}

const std::string& EmptyName() {
  static const std::string empty;
  return empty;
}

// kActiveThreads naming the first of `meta`'s implementations with a
// thread inside it, per `block`'s counters; Ok when none has.
Status CheckIdle(const DfmImplBlock& block,
                 const ImplementationComponent& meta) {
  for (std::size_t i = 0; i < block.records.size(); ++i) {
    const int count = block.records[i].active->load(std::memory_order_acquire);
    if (count <= 0) continue;
    return ActiveThreadsError("function '" + meta.functions[i].function.name +
                              "' in component " + meta.id.ToString() +
                              " has " + std::to_string(count) +
                              " active thread(s)");
  }
  return Status::Ok();
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
    DCDO_INSTRUMENT(CallEnd(mapper->check_owner_, *name_, component_));
  }
  // Lock-free: the guard owns a reference to its implementation record,
  // which outlives even a forced removal of the component.
  impl_->active->fetch_sub(1, std::memory_order_acq_rel);
  impl_.reset();
}

DynamicFunctionMapper::AcquireReject DynamicFunctionMapper::TryAcquireLocked(
    const Slot* slot, CallOrigin origin, CallGuard& guard) {
  if (slot == nullptr || !slot->any_present) return AcquireReject::kMissing;
  if (!slot->enabled) return AcquireReject::kDisabled;
  if (origin == CallOrigin::kExternal &&
      slot->visibility != Visibility::kExported) {
    return AcquireReject::kNotExported;
  }
  if (slot->record == nullptr) return AcquireReject::kNoBody;
  // The hot path: one increment on the record's counter plus one bump of
  // the block's refcount; no string is copied or allocated.
  slot->record->active->fetch_add(1, std::memory_order_acq_rel);
  calls_resolved_.fetch_add(1, std::memory_order_relaxed);
  guard.mapper_ = this;
  guard.name_ = slot->name;
  guard.function_id_ = slot->id;
  guard.component_ = slot->component;
  guard.impl_ = std::shared_ptr<const DfmImplRecord>(slot->block, slot->record);
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
    // One probe of the mapper's own name index — no round-trip through the
    // global intern table on the call path.
    const std::uint32_t slot = FindSlotLocked(function);
    reject = TryAcquireLocked(slot == kNoSlot ? nullptr : &slots_[slot],
                              origin, guard);
  }
  if (reject == AcquireReject::kNone) {
    if (!check_owner_.nil()) {
      DCDO_INSTRUMENT(CallStart(check_owner_, *guard.name_,
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
    const std::uint32_t slot = FindSlotLocked(function);
    reject = TryAcquireLocked(slot == kNoSlot ? nullptr : &slots_[slot],
                              origin, guard);
  }
  if (reject == AcquireReject::kNone) {
    if (!check_owner_.nil()) {
      DCDO_INSTRUMENT(CallStart(check_owner_, *guard.name_,
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

std::uint32_t DynamicFunctionMapper::FindSlotLocked(FunctionId id) const {
  if (id_index_.empty()) return kNoSlot;
  const std::size_t mask = id_index_.size() - 1;
  for (std::size_t i = Bucket(id.value);; i = (i + 1) & mask) {
    const std::uint32_t slot = id_index_[i];
    if (slot == kNoSlot || slots_[slot].id == id) return slot;
  }
}

std::uint32_t DynamicFunctionMapper::FindSlotLocked(
    std::string_view name) const {
  if (name_index_.empty()) return kNoSlot;
  const std::size_t mask = name_index_.size() - 1;
  for (std::size_t i = Bucket(FunctionNameHash{}(name));; i = (i + 1) & mask) {
    const std::uint32_t slot = name_index_[i];
    if (slot == kNoSlot || *slots_[slot].name == name) return slot;
  }
}

std::uint32_t DynamicFunctionMapper::SlotForLocked(FunctionId id) {
  if (const std::uint32_t found = FindSlotLocked(id); found != kNoSlot) {
    return found;
  }
  ReserveIndexLocked(slots_.size() + 1);
  Slot& added = slots_.emplace_back();
  added.name = &FunctionNameTable::Global().NameOf(id);
  added.id = id;
  const auto slot = static_cast<std::uint32_t>(slots_.size() - 1);
  IndexSlotLocked(slot);
  return slot;
}

void DynamicFunctionMapper::ReserveIndexLocked(std::size_t slots) {
  if (slots * 2 <= id_index_.size()) return;
  // The next power of two at least twice `slots`, and at least 16 buckets.
  const std::size_t size = std::max<std::size_t>(16, std::bit_ceil(slots * 2));
  index_shift_ = 64 - std::countr_zero(size);
  id_index_.assign(size, kNoSlot);
  name_index_.assign(size, kNoSlot);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) IndexSlotLocked(i);
}

void DynamicFunctionMapper::IndexSlotLocked(std::uint32_t slot) {
  const std::size_t mask = id_index_.size() - 1;
  std::size_t i = Bucket(slots_[slot].id.value);
  while (id_index_[i] != kNoSlot) i = (i + 1) & mask;
  id_index_[i] = slot;
  i = Bucket(FunctionNameHash{}(*slots_[slot].name));
  while (name_index_[i] != kNoSlot) i = (i + 1) & mask;
  name_index_[i] = slot;
}

const std::shared_ptr<DfmImplBlock>* DynamicFunctionMapper::FindBlockLocked(
    const ObjectId& component) const {
  auto it = std::ranges::lower_bound(
      blocks_, component, {},
      [](const std::shared_ptr<DfmImplBlock>& block) -> const ObjectId& {
        return block->component;
      });
  return it == blocks_.end() || (*it)->component != component ? nullptr
                                                              : &*it;
}

int DynamicFunctionMapper::ActiveLocked(const DfmEntry& row) const {
  const std::shared_ptr<DfmImplBlock>* block = FindBlockLocked(row.component);
  if (block == nullptr) return 0;
  return (*block)->records[state_.FunctionIndex(row)].active->load(
      std::memory_order_acquire);
}

void DynamicFunctionMapper::DeriveSlotLocked(Slot& slot,
                                             std::span<const DfmEntry> rows) {
  // Derived from the authoritative DfmState: the slot summarizes "who
  // services a call to F" for the shared-lock readers.
  Slot derived;
  derived.name = slot.name;
  derived.id = slot.id;
  derived.any_present = !rows.empty();
  for (const DfmEntry& row : rows) {
    if (!row.enabled) continue;
    derived.enabled = true;
    derived.visibility = row.visibility;
    derived.component = row.component;
    if (const auto* block = FindBlockLocked(row.component)) {
      derived.block = *block;
      derived.record = &(*block)->records[state_.FunctionIndex(row)];
    }
    break;
  }
  slot = std::move(derived);
}

void DynamicFunctionMapper::DeriveSlotLocked(const std::string& function) {
  const std::uint32_t slot = FindSlotLocked(function);
  if (slot != kNoSlot) DeriveSlotLocked(slots_[slot], state_.Rows(function));
}

void DynamicFunctionMapper::DeriveAllSlotsLocked() {
  // Rows arrive grouped by function; derive each function's slot once,
  // adding it on first sight (only a commit meets a function it has no
  // slot for). Slots of functions no longer present were reset when they
  // left.
  std::span<const DfmEntry> rows = state_.entries();
  for (auto begin = rows.begin(); begin != rows.end();) {
    auto end = begin + 1;
    while (end != rows.end() && end->function_id == begin->function_id) ++end;
    DeriveSlotLocked(slots_[SlotForLocked(begin->function_id)], {begin, end});
    begin = end;
  }
}

Result<DynamicFunctionMapper::ResolvedComponent>
DynamicFunctionMapper::ResolveComponent(const ImplementationComponent& meta,
                                        const NativeCodeRegistry& registry,
                                        sim::Architecture arch) {
  if (!meta.type.CompatibleWith(arch)) {
    return ArchMismatchError(
        "component " + meta.name + " (" + meta.type.ToString() +
        ") is incompatible with host architecture " +
        std::string(sim::ArchitectureName(arch)));
  }
  return BuildBlock(meta, registry, arch, nullptr);
}

Status DynamicFunctionMapper::CommitConfiguration(
    DfmState& target, std::vector<ResolvedComponent>& staged,
    bool enforce_marks, ActiveThreadPolicy policy) {
  auto block_id = [](const ResolvedComponent& block) -> const ObjectId& {
    return block->component;
  };
  std::ranges::sort(staged, {}, block_id);
  // Rows arrive grouped by function: count the functions, so the slot
  // array and both indexes are sized once.
  std::span<const DfmEntry> rows = target.entries();
  std::size_t functions = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].function_id != rows[i - 1].function_id) ++functions;
  }
  // Dropped components and whether each had a thread inside it.
  std::vector<std::pair<ObjectId, bool>> dropped;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // Every target component, and only those, is staged or still
    // incorporated: a configuration call may have removed a kept one.
    auto next_staged = staged.begin();
    for (const ComponentRecord& record : target.components()) {
      if (next_staged != staged.end() &&
          (*next_staged)->component == record->id) {
        ++next_staged;
      } else if (FindBlockLocked(record->id) == nullptr) {
        return ComponentMissingError("component " + record->name + " (" +
                                     record->id.ToString() +
                                     ") is neither staged nor incorporated");
      }
    }
    if (next_staged != staged.end()) {
      return FailedPreconditionError("staged component " +
                                     (*next_staged)->component.ToString() +
                                     " is not the target's");
    }
    DCDO_ASSIGN_OR_RETURN(DfmState next,
                          state_.EvolvedTo(std::move(target), enforce_marks));
    for (const ResolvedComponent& block : blocks_) {
      if (next.HasComponent(block->component)) continue;
      Status idle = CheckIdle(*block, *state_.FindComponent(block->component));
      if (!idle.ok() && policy == ActiveThreadPolicy::kError) {
        target = std::move(next);  // back to the caller, for a retry
        return idle;
      }
      dropped.emplace_back(block->component, !idle.ok());
    }
    // The next blocks, in id order: the staged ones, and each kept
    // component's own, which carries its in-flight counts.
    const auto staged_end = static_cast<std::ptrdiff_t>(staged.size());
    for (const ComponentRecord& record : next.components()) {
      const ResolvedComponent* kept = FindBlockLocked(record->id);
      if (kept == nullptr) continue;
      auto it = std::ranges::lower_bound(staged.begin(),
                                         staged.begin() + staged_end,
                                         record->id, {}, block_id);
      if (it != staged.begin() + staged_end && (*it)->component == record->id) {
        *it = *kept;  // incorporated during stage 1 as well
      } else {
        staged.push_back(*kept);
      }
    }
    std::ranges::sort(staged, {}, block_id);
    state_ = std::move(next);
    blocks_ = std::move(staged);
    staged.clear();
    // Every slot is re-derived: a function the target lacks keeps its slot
    // with no implementation present.
    for (Slot& slot : slots_) DeriveSlotLocked(slot, {});
    ReserveIndexLocked(functions);
    slots_.reserve(functions);
    DeriveAllSlotsLocked();
    BumpVersion();
  }
  if (!check_owner_.nil()) {
    for (const auto& [component, forced] : dropped) {
      DCDO_INSTRUMENT(ComponentRemoved(check_owner_, component, forced));
    }
  }
  return Status::Ok();
}

Status DynamicFunctionMapper::IncorporateComponent(
    ComponentRecord record, const NativeCodeRegistry& registry,
    sim::Architecture arch, bool auto_structural_deps) {
  const ImplementationComponent& meta = *record;
  // Resolve every symbol before mutating anything (all-or-nothing).
  DCDO_ASSIGN_OR_RETURN(ResolvedComponent block,
                        ResolveComponent(meta, registry, arch));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // The table co-owns the record from here on, so `meta` stays valid.
  DCDO_RETURN_IF_ERROR(
      state_.IncorporateComponent(std::move(record), auto_structural_deps));
  blocks_.insert(std::ranges::upper_bound(
                     blocks_, meta.id, {},
                     [](const std::shared_ptr<DfmImplBlock>& b)
                         -> const ObjectId& { return b->component; }),
                 std::move(block));
  // The new rows are disabled, so a call still resolves as before except
  // that an implementation is now present; only a permanent row, which the
  // state enabled, can change who services a call.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    const DfmEntry& row = *state_.FindEntry(fn.function.name, meta.id);
    Slot& slot = slots_[SlotForLocked(row.function_id)];
    if (fn.constraint == Constraint::kPermanent) {
      DeriveSlotLocked(slot, state_.Rows(fn.function.name));
    } else {
      slot.any_present = true;
    }
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
    const std::shared_ptr<DfmImplBlock>* block = FindBlockLocked(component);
    Status idle = block == nullptr ? Status::Ok() : CheckIdle(**block, *meta);
    if (!idle.ok() && policy == ActiveThreadPolicy::kError) return idle;
    had_active = !idle.ok();
    DCDO_RETURN_IF_ERROR(state_.RemoveComponent(component));
    if (block != nullptr) {
      blocks_.erase(blocks_.begin() + (block - blocks_.data()));
    }
    for (const FunctionImplDescriptor& fn : meta->functions) {
      DeriveSlotLocked(fn.function.name);
    }
    BumpVersion();
  }
  if (!check_owner_.nil()) {
    // "forced" means the removal actually overrode live threads, not merely
    // that the caller passed kForce.
    DCDO_INSTRUMENT(ComponentRemoved(check_owner_, component, had_active));
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
      for (const DfmEntry& row : state_.Rows(dependent)) {
        int count = ActiveLocked(row);
        if (count <= 0) continue;
        if (dep->dependent_component.has_value() &&
            *dep->dependent_component != row.component) {
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
      active_on_from = ActiveLocked(*enabled);
    }
    DCDO_RETURN_IF_ERROR(state_.SwitchImplementation(function, to_component));
    DeriveSlotLocked(function);
    BumpVersion();
  }
  if (!check_owner_.nil() && !from_component.nil() &&
      from_component != to_component) {
    DCDO_INSTRUMENT(ImplSwapped(check_owner_, function, from_component,
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

Status DynamicFunctionMapper::RemapBodies(const NativeCodeRegistry& registry,
                                          sim::Architecture arch) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::shared_ptr<DfmImplBlock>> remapped;
  remapped.reserve(blocks_.size());
  for (const ComponentRecord& meta : state_.components()) {
    if (!meta->type.CompatibleWith(arch)) {
      return ArchMismatchError("component " + meta->name + " (" +
                               meta->type.ToString() +
                               ") cannot be mapped on " +
                               std::string(sim::ArchitectureName(arch)));
    }
    // Keep the existing counters: remapping does not end in-flight calls,
    // and their counts must survive into the replacement block.
    const std::shared_ptr<DfmImplBlock>* existing = FindBlockLocked(meta->id);
    DCDO_ASSIGN_OR_RETURN(
        std::shared_ptr<DfmImplBlock> block,
        BuildBlock(*meta, registry, arch,
                   existing != nullptr ? (*existing)->counters : nullptr));
    remapped.push_back(std::move(block));
  }
  blocks_ = std::move(remapped);
  DeriveAllSlotsLocked();
  BumpVersion();
  return Status::Ok();
}

int DynamicFunctionMapper::ActiveCount(const std::string& function,
                                       const ObjectId& component) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const DfmEntry* row = state_.FindEntry(function, component);
  return row == nullptr ? 0 : ActiveLocked(*row);
}

int DynamicFunctionMapper::TotalActive() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  int total = 0;
  for (const std::shared_ptr<DfmImplBlock>& block : blocks_) {
    for (const DfmImplRecord& record : block->records) {
      total += record.active->load(std::memory_order_acquire);
    }
  }
  return total;
}

}  // namespace dcdo
