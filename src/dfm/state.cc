#include "dfm/state.h"

#include <algorithm>
#include <map>

namespace dcdo {

int CompareRows(const DfmEntry& a, const DfmEntry& b) {
  if (a.impl == b.impl) return 0;
  if (const int order = a.name().compare(b.name()); order != 0) return order;
  return a.component < b.component ? -1 : (b.component < a.component ? 1 : 0);
}

namespace {

// Whether two records of one component list the same functions with the
// same symbols in the same order, so bodies resolved for one serve the
// other by position. Copies of a component share one list; only a list
// parsed anew is compared.
bool SameFunctions(const ImplementationComponent& a,
                   const ImplementationComponent& b) {
  return a.functions.data() == b.functions.data() ||
         std::ranges::equal(a.functions, b.functions,
                            [](const FunctionImplDescriptor& x,
                               const FunctionImplDescriptor& y) {
                              return x.function.name == y.function.name &&
                                     x.symbol == y.symbol;
                            });
}

Status NoImplementationError(const std::string& function,
                             const ObjectId& component) {
  return FunctionMissingError("no implementation of '" + function +
                              "' in component " + component.ToString());
}

}  // namespace

Status DfmState::IncorporateComponent(ComponentRecord record,
                                      bool auto_structural_deps) {
  const ImplementationComponent& meta = *record;
  DCDO_RETURN_IF_ERROR(meta.Validate());
  if (HasComponent(meta.id)) {
    return AlreadyExistsError("component " + meta.name + " (" +
                              meta.id.ToString() + ") already incorporated");
  }
  // The paper's incorporate-conflict rule: a component carrying a permanent
  // implementation of F cannot join a configuration that already has a
  // permanent implementation of F in another component.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (fn.constraint != Constraint::kPermanent) continue;
    for (const DfmEntry& entry : Rows(fn.function.name)) {
      if (entry.permanent) {
        return PermanentViolationError(
            "component " + meta.name + " carries permanent '" +
            fn.function.name + "' but component " +
            entry.component.ToString() +
            " already holds a permanent implementation");
      }
    }
  }

  // The component's rows, sorted by name (unique within a component), are
  // merged into the table in place, from the back: each new row's place
  // among the old rows is a binary search, and the old rows after it move
  // up as one block.
  std::vector<DfmEntry> added;
  added.reserve(meta.functions.size());
  FunctionNameTable& names = FunctionNameTable::Global();
  for (const FunctionImplDescriptor& fn : meta.functions) {
    added.push_back(DfmEntry{meta.id, &fn, names.Intern(fn.function.name),
                             fn.visibility});
  }
  auto before = [](const DfmEntry& a, const DfmEntry& b) {
    return CompareRows(a, b) < 0;
  };
  std::ranges::sort(added, before);
  const std::size_t old_size = rows_.size();
  rows_.resize(old_size + added.size());
  auto kept = rows_.begin() + static_cast<std::ptrdiff_t>(old_size);
  auto out = rows_.end();
  for (auto next = added.rbegin(); next != added.rend(); ++next) {
    auto place = std::upper_bound(rows_.begin(), kept, *next, before);
    out = std::move_backward(place, kept, out);
    kept = place;
    *--out = *next;
  }
  // Copied, not moved: a rolled-back incorporate still reads `meta` after
  // erasing the table's reference.
  components_.insert(FindComponentRef(meta.id), record);
  // Permanent markings enable the impl (a permanent impl may never be
  // disabled, so it must be enabled) — done after all rows exist so the
  // dependency check sees the whole component.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (fn.constraint != Constraint::kPermanent) continue;
    // Enabling can fail if another impl of the function is already enabled;
    // in that case incorporation must be rolled back.
    Status enabled = EnableFunction(fn.function.name, meta.id);
    if (!enabled.ok()) {
      std::erase_if(rows_, [&](const DfmEntry& row) {
        return row.component == meta.id;
      });
      components_.erase(FindComponentRef(meta.id));
      return PermanentViolationError(
          "cannot incorporate " + meta.name + ": permanent '" +
          fn.function.name + "' could not be enabled: " + enabled.message());
    }
    Locate(fn.function.name, meta.id).row->permanent = true;
  }
  // Nothing below can fail (Validate rejected empty callees), so a rejected
  // incorporate leaves no mandatory mark or dependency behind.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (fn.constraint == Constraint::kMandatory) {
      mandatory_.insert(fn.function.name);
    }
    if (!auto_structural_deps) continue;
    for (const std::string& callee : fn.calls) {
      // Cannot fail: both names are non-empty and C1 is set.
      (void)deps_.Add(Dependency::TypeA(fn.function.name, meta.id, callee));
    }
  }
  return Status::Ok();
}

Status DfmState::RemoveComponent(const ObjectId& component) {
  const ImplementationComponent* found = FindComponent(component);
  if (found == nullptr) {
    return ComponentMissingError("component " + component.ToString() +
                                 " not incorporated");
  }
  const ImplementationComponent& meta = *found;
  // Permanent implementations pin their component.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    const DfmEntry* entry = FindEntry(fn.function.name, component);
    if (entry != nullptr && entry->permanent) {
      return PermanentViolationError(
          "component " + meta.name + " holds permanent '" +
          fn.function.name + "' and cannot be removed");
    }
  }
  // A mandatory function must keep at least one implementation *present*.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (!mandatory_.contains(fn.function.name)) continue;
    if (std::ranges::all_of(Rows(fn.function.name), [&](const DfmEntry& row) {
          return row.component == component;
        })) {
      return MandatoryViolationError(
          "removing component " + meta.name +
          " would leave mandatory '" + fn.function.name +
          "' with no implementation");
    }
  }
  // Dependencies: read every row of the component as disabled.
  DCDO_RETURN_IF_ERROR(deps_.Validate(Enabled().Drop(component)));

  std::erase_if(rows_, [&](const DfmEntry& row) {
    return row.component == component;
  });
  components_.erase(FindComponentRef(component));
  return Status::Ok();
}

Status DfmState::EnableFunction(const std::string& function,
                                const ObjectId& component) {
  const FunctionRows found = Locate(function, component);
  DfmEntry* row = found.row;
  if (row == nullptr) return NoImplementationError(function, component);
  if (row->enabled) return Status::Ok();  // idempotent
  if (found.enabled != nullptr) {
    return FailedPreconditionError(
        "'" + function + "' already enabled from component " +
        found.enabled->component.ToString() + "; disable it or use Switch");
  }
  DCDO_RETURN_IF_ERROR(deps_.Validate(Enabled().Flip(*row, true)));
  row->enabled = true;
  return Status::Ok();
}

Status DfmState::DisableFunction(const std::string& function,
                                 const ObjectId& component) {
  DfmEntry* row = Locate(function, component).row;
  if (row == nullptr) return NoImplementationError(function, component);
  if (!row->enabled) return Status::Ok();  // idempotent
  if (row->permanent) {
    return PermanentViolationError("'" + function + "' in component " +
                                   component.ToString() + " is permanent");
  }
  if (mandatory_.contains(function)) {
    // Disabling is allowed only if this is not the last enabled impl —
    // which, given the one-enabled-impl invariant, it always is. A mandatory
    // function's impl can therefore only be *switched*, never plainly
    // disabled.
    return MandatoryViolationError("'" + function +
                                   "' is mandatory; switch implementations "
                                   "instead of disabling");
  }
  DCDO_RETURN_IF_ERROR(deps_.Validate(Enabled().Flip(*row, false)));
  row->enabled = false;
  return Status::Ok();
}

Status DfmState::SwitchImplementation(const std::string& function,
                                      const ObjectId& to_component) {
  const FunctionRows found = Locate(function, to_component);
  DfmEntry* to = found.row;
  if (to == nullptr) return NoImplementationError(function, to_component);
  DfmEntry* current = found.enabled;
  if (current == to) return Status::Ok();  // already there
  if (current != nullptr && current->permanent) {
    return PermanentViolationError("'" + function + "' in component " +
                                   current->component.ToString() +
                                   " is permanent and cannot be replaced");
  }
  Overlay proposed = Enabled();
  if (current != nullptr) proposed.Flip(*current, false);
  proposed.Flip(*to, true);
  DCDO_RETURN_IF_ERROR(deps_.Validate(proposed));
  if (current != nullptr) current->enabled = false;
  to->enabled = true;
  return Status::Ok();
}

Status DfmState::SetVisibility(const std::string& function,
                               const ObjectId& component,
                               Visibility visibility) {
  DfmEntry* row = Locate(function, component).row;
  if (row == nullptr) return NoImplementationError(function, component);
  if (row->permanent && row->visibility != visibility) {
    return PermanentViolationError("'" + function +
                                   "' is permanent; its interface is frozen");
  }
  row->visibility = visibility;
  return Status::Ok();
}

Status DfmState::MarkMandatory(const std::string& function) {
  if (!AnyImplPresent(function)) {
    return FunctionMissingError("cannot mark unknown function '" + function +
                                "' mandatory");
  }
  mandatory_.insert(function);
  return Status::Ok();
}

Status DfmState::MarkPermanent(const std::string& function,
                               const ObjectId& component) {
  const FunctionRows found = Locate(function, component);
  DfmEntry* row = found.row;
  if (row == nullptr) return NoImplementationError(function, component);
  // Only one permanent implementation of a function may exist.
  for (const DfmEntry& entry : found.rows) {
    if (entry.permanent && entry.component != component) {
      return PermanentViolationError(
          "'" + function + "' already permanent in component " +
          entry.component.ToString());
    }
  }
  // A permanent impl is frozen *enabled*; enable it now if necessary.
  if (!row->enabled) {
    DCDO_RETURN_IF_ERROR(SwitchImplementation(function, component));
  }
  row->permanent = true;
  return Status::Ok();
}

Status DfmState::AddDependency(Dependency dep) {
  DCDO_RETURN_IF_ERROR(dep.Validate());
  // Adding a dependency must not be retroactively violated by the current
  // configuration; check the list as it would stand (the newcomer goes
  // last) before committing.
  const Overlay current = Enabled();
  DCDO_RETURN_IF_ERROR(deps_.Validate(current));
  DCDO_RETURN_IF_ERROR(DependencySet::Check(dep, current));
  return deps_.Add(std::move(dep));
}

Status DfmState::RemoveDependency(const Dependency& dep) {
  return deps_.Remove(dep);
}

std::vector<ComponentRecord>::const_iterator DfmState::FindComponentRef(
    const ObjectId& component) const {
  return std::ranges::lower_bound(
      components_, component, {},
      [](const ComponentRecord& record) -> const ObjectId& {
        return record->id;
      });
}

const ImplementationComponent* DfmState::FindComponent(
    const ObjectId& component) const {
  auto it = FindComponentRef(component);
  return it == components_.end() || (*it)->id != component ? nullptr
                                                           : it->get();
}

ComponentRecord DfmState::SharedComponent(const ObjectId& component) const {
  auto it = FindComponentRef(component);
  return it == components_.end() || (*it)->id != component ? nullptr : *it;
}

std::vector<ObjectId> DfmState::ComponentIds() const {
  std::vector<ObjectId> out;
  out.reserve(components_.size());
  for (const ComponentRecord& record : components_) out.push_back(record->id);
  return out;
}

std::vector<DfmEntry>::const_iterator DfmState::LowerBound(
    const std::string& function, const ObjectId& component) const {
  return std::partition_point(
      rows_.begin(), rows_.end(), [&](const DfmEntry& row) {
        const int order = row.name().compare(function);
        return order < 0 || (order == 0 && row.component < component);
      });
}

const DfmEntry* DfmState::FindEntry(const std::string& function,
                                    const ObjectId& component) const {
  auto it = LowerBound(function, component);
  return it == rows_.end() || it->component != component ||
                 it->name() != function
             ? nullptr
             : &*it;
}

std::span<const DfmEntry> DfmState::Rows(const std::string& function) const {
  auto begin = LowerBound(function, ObjectId());
  auto end = begin;
  while (end != rows_.end() && end->name() == function) ++end;
  return {begin, end};
}

DfmState::FunctionRows DfmState::Locate(const std::string& function,
                                        const ObjectId& component) {
  const std::span<const DfmEntry> rows = Rows(function);
  FunctionRows found{
      {rows_.data() + (rows.data() - rows_.data()), rows.size()}};
  for (DfmEntry& row : found.rows) {
    if (row.component == component) found.row = &row;
    if (row.enabled && found.enabled == nullptr) found.enabled = &row;
  }
  return found;
}

std::size_t DfmState::FunctionIndex(const DfmEntry& row) const {
  return static_cast<std::size_t>(
      row.impl - FindComponent(row.component)->functions.data());
}

const DfmEntry* DfmState::EnabledImpl(const std::string& function) const {
  for (const DfmEntry& entry : Rows(function)) {
    if (entry.enabled) return &entry;
  }
  return nullptr;
}

bool DfmState::AnyImplPresent(const std::string& function) const {
  return !Rows(function).empty();
}

std::vector<FunctionSignature> DfmState::ExportedInterface() const {
  std::vector<FunctionSignature> out;
  for (const DfmEntry& entry : rows_) {
    if (entry.enabled && entry.visibility == Visibility::kExported) {
      out.push_back(entry.function());
    }
  }
  return out;
}

DfmState::Overlay& DfmState::Overlay::Flip(const DfmEntry& row,
                                           bool enabled) {
  flips_.at(flip_count_++) = Pending{&row, enabled};
  return *this;
}

DfmState::Overlay& DfmState::Overlay::Drop(const ObjectId& component) {
  dropped_ = &component;
  return *this;
}

bool DfmState::Overlay::RowEnabled(const DfmEntry& row) const {
  for (std::size_t i = 0; i < flip_count_; ++i) {
    if (flips_[i].row == &row) return flips_[i].enabled;
  }
  if (dropped_ != nullptr && *dropped_ == row.component) return false;
  return row.enabled;
}

bool DfmState::Overlay::IsEnabled(const std::string& function,
                                  const ObjectId& component) const {
  const DfmEntry* row = state_->FindEntry(function, component);
  return row != nullptr && RowEnabled(*row);
}

bool DfmState::Overlay::AnyEnabled(const std::string& function) const {
  for (const DfmEntry& row : state_->Rows(function)) {
    if (RowEnabled(row)) return true;
  }
  return false;
}

DfmState DfmState::CopyWithRoom() const {
  DfmState copy;
  const std::size_t per_component =
      components_.empty()
          ? 0
          : (rows_.size() + components_.size() - 1) / components_.size();
  copy.rows_.reserve(rows_.size() + per_component);
  copy.rows_.insert(copy.rows_.end(), rows_.begin(), rows_.end());
  copy.components_.reserve(components_.size() + 1);
  copy.components_.insert(copy.components_.end(), components_.begin(),
                          components_.end());
  copy.mandatory_ = mandatory_;
  copy.deps_ = deps_;
  return copy;
}

Result<DfmState> DfmState::EvolvedTo(DfmState&& target,
                                     bool enforce_marks) const {
  // A component both tables hold keeps its resolved bodies, which follow
  // this table's record. One merge over the two id-sorted record arrays.
  auto theirs = target.components_.begin();
  for (const ComponentRecord& mine : components_) {
    while (theirs != target.components_.end() && (*theirs)->id < mine->id) {
      ++theirs;
    }
    if (theirs != target.components_.end() && (*theirs)->id == mine->id &&
        !SameFunctions(**theirs, *mine)) {
      return FailedPreconditionError(
          "component " + mine->name + " (" + mine->id.ToString() +
          ") lists other functions or symbols in the target");
    }
  }
  if (enforce_marks) {
    // A currently-permanent implementation must stay enabled in the target.
    for (const DfmEntry& entry : rows_) {
      if (!entry.permanent) continue;
      const DfmEntry* after = target.FindEntry(entry.name(), entry.component);
      if (after == nullptr || !after->enabled) {
        return PermanentViolationError(
            "evolution would disable or drop permanent '" + entry.name() +
            "' in component " + entry.component.ToString());
      }
    }
    // A currently-mandatory function must keep an enabled implementation.
    for (const std::string& function : mandatory_) {
      if (target.EnabledImpl(function) == nullptr) {
        return MandatoryViolationError(
            "evolution would leave mandatory '" + function +
            "' with no enabled implementation");
      }
    }
    // Carry the marks forward.
    for (const DfmEntry& entry : rows_) {
      if (entry.permanent) {
        target.Locate(entry.name(), entry.component).row->permanent = true;
      }
    }
    target.mandatory_.insert(mandatory_.begin(), mandatory_.end());
  }
  return std::move(target);
}

Status DfmState::ValidateComplete() const {
  for (const std::string& function : mandatory_) {
    if (EnabledImpl(function) == nullptr) {
      return MandatoryViolationError("mandatory '" + function +
                                     "' has no enabled implementation");
    }
  }
  for (const DfmEntry& entry : rows_) {
    if (entry.permanent && !entry.enabled) {
      return PermanentViolationError("permanent '" + entry.name() +
                                     "' is not enabled");
    }
  }
  return deps_.Validate(Enabled());
}

std::vector<std::string> DfmState::CheckIntegrity() const {
  std::vector<std::string> anomalies;
  std::map<std::string, int> enabled_per_function;
  for (const DfmEntry& entry : rows_) {
    if (entry.enabled) ++enabled_per_function[entry.name()];
    if (entry.permanent && !entry.enabled) {
      anomalies.push_back("permanent implementation of '" + entry.name() +
                          "' in component " + entry.component.ToString() +
                          " is disabled");
    }
    if (!HasComponent(entry.component)) {
      anomalies.push_back("entry for '" + entry.name() +
                          "' references component " +
                          entry.component.ToString() +
                          " which is not incorporated");
    }
  }
  for (const auto& [function, count] : enabled_per_function) {
    if (count > 1) {
      anomalies.push_back("function '" + function + "' has " +
                          std::to_string(count) +
                          " enabled implementations (at most one allowed)");
    }
  }
  for (const std::string& function : mandatory_) {
    if (!AnyImplPresent(function)) {
      anomalies.push_back("mandatory function '" + function +
                          "' has no implementation present");
    }
  }
  return anomalies;
}

}  // namespace dcdo
