#include "dfm/state.h"

namespace dcdo {

Status DfmState::IncorporateComponent(const ImplementationComponent& meta,
                                      bool auto_structural_deps) {
  DCDO_RETURN_IF_ERROR(meta.Validate());
  if (components_.contains(meta.id)) {
    return AlreadyExistsError("component " + meta.name + " (" +
                              meta.id.ToString() + ") already incorporated");
  }
  // The paper's incorporate-conflict rule: a component carrying a permanent
  // implementation of F cannot join a configuration that already has a
  // permanent implementation of F in another component.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (fn.constraint != Constraint::kPermanent) continue;
    for (const auto& [key, entry] : Rows(fn.function.name)) {
      if (entry.permanent) {
        return PermanentViolationError(
            "component " + meta.name + " carries permanent '" +
            fn.function.name + "' but component " +
            entry.component.ToString() +
            " already holds a permanent implementation");
      }
    }
  }

  components_.emplace(meta.id,
                      std::make_shared<const ImplementationComponent>(meta));
  for (const FunctionImplDescriptor& fn : meta.functions) {
    DfmEntry entry;
    entry.function = fn.function;
    entry.component = meta.id;
    entry.visibility = fn.visibility;
    entry.symbol = fn.symbol;
    entries_.emplace(EntryKey{fn.function.name, meta.id}, std::move(entry));
  }
  // Permanent markings enable the impl (a permanent impl may never be
  // disabled, so it must be enabled) — done after all rows exist so the
  // dependency check sees the whole component.
  for (const FunctionImplDescriptor& fn : meta.functions) {
    if (fn.constraint != Constraint::kPermanent) continue;
    // Enabling can fail if another impl of the function is already enabled;
    // in that case incorporation must be rolled back.
    Status enabled = EnableFunction(fn.function.name, meta.id);
    if (!enabled.ok()) {
      // Roll back every row we added.
      for (const FunctionImplDescriptor& added : meta.functions) {
        entries_.erase({added.function.name, meta.id});
      }
      components_.erase(meta.id);
      return PermanentViolationError(
          "cannot incorporate " + meta.name + ": permanent '" +
          fn.function.name + "' could not be enabled: " + enabled.message());
    }
    entries_.find({fn.function.name, meta.id})->second.permanent = true;
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
  auto comp_it = components_.find(component);
  if (comp_it == components_.end()) {
    return ComponentMissingError("component " + component.ToString() +
                                 " not incorporated");
  }
  const ImplementationComponent& meta = *comp_it->second;
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
    bool other_impl = false;
    for (const auto& [key, entry] : Rows(fn.function.name)) {
      if (entry.component != component) {
        other_impl = true;
        break;
      }
    }
    if (!other_impl) {
      return MandatoryViolationError(
          "removing component " + meta.name +
          " would leave mandatory '" + fn.function.name +
          "' with no implementation");
    }
  }
  // Dependencies: read every row of the component as disabled.
  DCDO_RETURN_IF_ERROR(deps_.Validate(Enabled().Drop(component)));

  for (const FunctionImplDescriptor& fn : meta.functions) {
    entries_.erase({fn.function.name, component});
  }
  components_.erase(comp_it);
  return Status::Ok();
}

Status DfmState::EnableFunction(const std::string& function,
                                const ObjectId& component) {
  auto it = entries_.find({function, component});
  if (it == entries_.end()) {
    return FunctionMissingError("no implementation of '" + function +
                                "' in component " + component.ToString());
  }
  if (it->second.enabled) return Status::Ok();  // idempotent
  if (const DfmEntry* current = EnabledImpl(function); current != nullptr) {
    return FailedPreconditionError(
        "'" + function + "' already enabled from component " +
        current->component.ToString() + "; disable it or use Switch");
  }
  DCDO_RETURN_IF_ERROR(
      deps_.Validate(Enabled().Flip(function, component, true)));
  it->second.enabled = true;
  return Status::Ok();
}

Status DfmState::DisableFunction(const std::string& function,
                                 const ObjectId& component) {
  auto it = entries_.find({function, component});
  if (it == entries_.end()) {
    return FunctionMissingError("no implementation of '" + function +
                                "' in component " + component.ToString());
  }
  if (!it->second.enabled) return Status::Ok();  // idempotent
  if (it->second.permanent) {
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
  DCDO_RETURN_IF_ERROR(
      deps_.Validate(Enabled().Flip(function, component, false)));
  it->second.enabled = false;
  return Status::Ok();
}

Status DfmState::SwitchImplementation(const std::string& function,
                                      const ObjectId& to_component) {
  auto to_it = entries_.find({function, to_component});
  if (to_it == entries_.end()) {
    return FunctionMissingError("no implementation of '" + function +
                                "' in component " + to_component.ToString());
  }
  const DfmEntry* current = EnabledImpl(function);
  if (current != nullptr && current->component == to_component) {
    return Status::Ok();  // already there
  }
  if (current != nullptr && current->permanent) {
    return PermanentViolationError("'" + function + "' in component " +
                                   current->component.ToString() +
                                   " is permanent and cannot be replaced");
  }
  Overlay proposed = Enabled();
  if (current != nullptr) proposed.Flip(function, current->component, false);
  proposed.Flip(function, to_component, true);
  DCDO_RETURN_IF_ERROR(deps_.Validate(proposed));
  if (current != nullptr) {
    entries_.find({function, current->component})->second.enabled = false;
  }
  to_it->second.enabled = true;
  return Status::Ok();
}

Status DfmState::SetVisibility(const std::string& function,
                               const ObjectId& component,
                               Visibility visibility) {
  auto it = entries_.find({function, component});
  if (it == entries_.end()) {
    return FunctionMissingError("no implementation of '" + function +
                                "' in component " + component.ToString());
  }
  if (it->second.permanent && it->second.visibility != visibility) {
    return PermanentViolationError("'" + function +
                                   "' is permanent; its interface is frozen");
  }
  it->second.visibility = visibility;
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
  auto it = entries_.find({function, component});
  if (it == entries_.end()) {
    return FunctionMissingError("no implementation of '" + function +
                                "' in component " + component.ToString());
  }
  // Only one permanent implementation of a function may exist.
  for (const auto& [key, entry] : Rows(function)) {
    if (entry.permanent && entry.component != component) {
      return PermanentViolationError(
          "'" + function + "' already permanent in component " +
          entry.component.ToString());
    }
  }
  // A permanent impl is frozen *enabled*; enable it now if necessary.
  if (!it->second.enabled) {
    DCDO_RETURN_IF_ERROR(SwitchImplementation(function, component));
  }
  it->second.permanent = true;
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

const ImplementationComponent* DfmState::FindComponent(
    const ObjectId& component) const {
  auto it = components_.find(component);
  return it == components_.end() ? nullptr : it->second.get();
}

std::shared_ptr<const ImplementationComponent> DfmState::SharedComponent(
    const ObjectId& component) const {
  auto it = components_.find(component);
  return it == components_.end() ? nullptr : it->second;
}

std::vector<ObjectId> DfmState::ComponentIds() const {
  std::vector<ObjectId> out;
  out.reserve(components_.size());
  for (const auto& [id, meta] : components_) out.push_back(id);
  return out;
}

const DfmEntry* DfmState::FindEntry(const std::string& function,
                                    const ObjectId& component) const {
  auto it = entries_.find({function, component});
  return it == entries_.end() ? nullptr : &it->second;
}

std::ranges::subrange<DfmState::EntryMap::const_iterator> DfmState::Rows(
    const std::string& function) const {
  auto begin = entries_.lower_bound({function, ObjectId()});
  auto end = begin;
  while (end != entries_.end() && end->first.first == function) ++end;
  return {begin, end};
}

const DfmEntry* DfmState::EnabledImpl(const std::string& function) const {
  for (const auto& [key, entry] : Rows(function)) {
    if (entry.enabled) return &entry;
  }
  return nullptr;
}

bool DfmState::AnyImplPresent(const std::string& function) const {
  return !Rows(function).empty();
}

std::vector<FunctionSignature> DfmState::ExportedInterface() const {
  std::vector<FunctionSignature> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.enabled && entry.visibility == Visibility::kExported) {
      out.push_back(entry.function);
    }
  }
  return out;
}

std::vector<const DfmEntry*> DfmState::AllEntries() const {
  std::vector<const DfmEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(&entry);
  return out;
}

DfmState::Overlay& DfmState::Overlay::Flip(const std::string& function,
                                           const ObjectId& component,
                                           bool enabled) {
  flips_.at(flip_count_++) = Pending{&function, &component, enabled};
  return *this;
}

DfmState::Overlay& DfmState::Overlay::Drop(const ObjectId& component) {
  dropped_ = &component;
  return *this;
}

bool DfmState::Overlay::RowEnabled(const DfmEntry& row) const {
  for (std::size_t i = 0; i < flip_count_; ++i) {
    const Pending& flip = flips_[i];
    if (*flip.function == row.function.name &&
        *flip.component == row.component) {
      return flip.enabled;
    }
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
  for (const auto& [key, row] : state_->Rows(function)) {
    if (RowEnabled(row)) return true;
  }
  return false;
}

Status DfmState::AdoptConfiguration(const DfmState& target,
                                    bool enforce_marks) {
  // Every target entry must already exist here with the same symbol.
  for (const DfmEntry* entry : target.AllEntries()) {
    const DfmEntry* mine = FindEntry(entry->function.name, entry->component);
    if (mine == nullptr) {
      return ComponentMissingError(
          "AdoptConfiguration: entry '" + entry->function.name +
          "' of component " + entry->component.ToString() +
          " not incorporated; incorporate new components first");
    }
    if (mine->symbol != entry->symbol) {
      return FailedPreconditionError(
          "AdoptConfiguration: symbol mismatch for '" + entry->function.name +
          "'");
    }
  }
  if (enforce_marks) {
    // A currently-permanent implementation must stay enabled in the target.
    for (const auto& [key, entry] : entries_) {
      if (!entry.permanent) continue;
      const DfmEntry* after =
          target.FindEntry(entry.function.name, entry.component);
      if (after == nullptr || !after->enabled) {
        return PermanentViolationError(
            "evolution would disable or drop permanent '" +
            entry.function.name + "' in component " +
            entry.component.ToString());
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
  }
  // Validate the target's dependencies against its enabled set before
  // mutating anything.
  DCDO_RETURN_IF_ERROR(target.dependencies().Validate(target.Enabled()));

  // Commit: enabled flags + visibility from the target; absent => disabled.
  for (auto& [key, entry] : entries_) {
    const DfmEntry* after = target.FindEntry(entry.function.name,
                                             entry.component);
    if (after == nullptr) {
      entry.enabled = false;
      entry.permanent = false;  // row is leaving with its component
      continue;
    }
    entry.enabled = after->enabled;
    entry.visibility = after->visibility;
    entry.permanent = after->permanent || (enforce_marks && entry.permanent);
  }
  std::set<std::string> mandatory = target.mandatory_functions();
  if (enforce_marks) {
    mandatory.insert(mandatory_.begin(), mandatory_.end());
  }
  mandatory_ = std::move(mandatory);
  deps_ = target.dependencies();
  // A component id names one immutable metadata record: share the target's.
  for (auto& [id, meta] : components_) {
    if (auto theirs = target.components_.find(id);
        theirs != target.components_.end()) {
      meta = theirs->second;
    }
  }
  return Status::Ok();
}

Status DfmState::ValidateComplete() const {
  for (const std::string& function : mandatory_) {
    if (EnabledImpl(function) == nullptr) {
      return MandatoryViolationError("mandatory '" + function +
                                     "' has no enabled implementation");
    }
  }
  for (const auto& [key, entry] : entries_) {
    if (entry.permanent && !entry.enabled) {
      return PermanentViolationError("permanent '" + entry.function.name +
                                     "' is not enabled");
    }
  }
  return deps_.Validate(Enabled());
}

std::vector<std::string> DfmState::CheckIntegrity() const {
  std::vector<std::string> anomalies;
  std::map<std::string, int> enabled_per_function;
  for (const auto& [key, entry] : entries_) {
    if (entry.enabled) ++enabled_per_function[entry.function.name];
    if (entry.permanent && !entry.enabled) {
      anomalies.push_back("permanent implementation of '" +
                          entry.function.name + "' in component " +
                          entry.component.ToString() + " is disabled");
    }
    if (!components_.contains(entry.component)) {
      anomalies.push_back("entry for '" + entry.function.name +
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
