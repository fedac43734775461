#include "dfm/dependency.h"

#include <algorithm>

namespace dcdo {

std::string_view DependencyKindName(DependencyKind kind) {
  switch (kind) {
    case DependencyKind::kTypeA: return "A";
    case DependencyKind::kTypeB: return "B";
    case DependencyKind::kTypeC: return "C";
    case DependencyKind::kTypeD: return "D";
  }
  return "?";
}

Dependency Dependency::TypeA(std::string f1, ObjectId c1, std::string f2) {
  Dependency dep;
  dep.kind = DependencyKind::kTypeA;
  dep.dependent = std::move(f1);
  dep.dependent_component = c1;
  dep.target = std::move(f2);
  return dep;
}

Dependency Dependency::TypeB(std::string f1, ObjectId c1, std::string f2,
                             ObjectId c2) {
  Dependency dep;
  dep.kind = DependencyKind::kTypeB;
  dep.dependent = std::move(f1);
  dep.dependent_component = c1;
  dep.target = std::move(f2);
  dep.target_component = c2;
  return dep;
}

Dependency Dependency::TypeC(std::string f1, std::string f2, ObjectId c2) {
  Dependency dep;
  dep.kind = DependencyKind::kTypeC;
  dep.dependent = std::move(f1);
  dep.target = std::move(f2);
  dep.target_component = c2;
  return dep;
}

Dependency Dependency::TypeD(std::string f1, std::string f2) {
  Dependency dep;
  dep.kind = DependencyKind::kTypeD;
  dep.dependent = std::move(f1);
  dep.target = std::move(f2);
  return dep;
}

Status Dependency::Validate() const {
  if (dependent.empty() || target.empty()) {
    return InvalidArgumentError("dependency with empty function name");
  }
  const bool needs_c1 = kind == DependencyKind::kTypeA ||
                        kind == DependencyKind::kTypeB;
  const bool needs_c2 = kind == DependencyKind::kTypeB ||
                        kind == DependencyKind::kTypeC;
  if (needs_c1 != dependent_component.has_value()) {
    return InvalidArgumentError("Type " +
                                std::string(DependencyKindName(kind)) +
                                " dependency has wrong dependent-component");
  }
  if (needs_c2 != target_component.has_value()) {
    return InvalidArgumentError("Type " +
                                std::string(DependencyKindName(kind)) +
                                " dependency has wrong target-component");
  }
  return Status::Ok();
}

std::string Dependency::ToString() const {
  std::string out = "[";
  out += dependent;
  if (dependent_component) out += "," + dependent_component->ToString();
  out += "]->[";
  out += target;
  if (target_component) out += "," + target_component->ToString();
  out += "] (Type ";
  out += DependencyKindName(kind);
  out += ")";
  return out;
}

std::ostream& operator<<(std::ostream& os, const Dependency& dep) {
  return os << dep.ToString();
}

bool EnabledSnapshot::AnyEnabled(const std::string& function) const {
  auto it = enabled_.lower_bound({function, ObjectId()});
  return it != enabled_.end() && it->first == function;
}

Status DependencySet::Add(Dependency dep) {
  DCDO_RETURN_IF_ERROR(dep.Validate());
  if (std::find(deps_.begin(), deps_.end(), dep) != deps_.end()) {
    return Status::Ok();  // idempotent
  }
  deps_.push_back(std::move(dep));
  return Status::Ok();
}

Status DependencySet::Remove(const Dependency& dep) {
  auto it = std::find(deps_.begin(), deps_.end(), dep);
  if (it == deps_.end()) {
    return NotFoundError("dependency " + dep.ToString() + " not present");
  }
  deps_.erase(it);
  return Status::Ok();
}

bool DependencySet::HeadHolds(const Dependency& dep, const EnabledView& view) {
  if (dep.dependent_component.has_value()) {
    return view.IsEnabled(dep.dependent, *dep.dependent_component);
  }
  return view.AnyEnabled(dep.dependent);
}

bool DependencySet::TargetHolds(const Dependency& dep,
                                const EnabledView& view) {
  if (dep.target_component.has_value()) {
    return view.IsEnabled(dep.target, *dep.target_component);
  }
  return view.AnyEnabled(dep.target);
}

Status DependencySet::Check(const Dependency& dep, const EnabledView& view) {
  if (HeadHolds(dep, view) && !TargetHolds(dep, view)) {
    return DependencyViolationError("dependency " + dep.ToString() +
                                    " violated");
  }
  return Status::Ok();
}

Status DependencySet::Validate(const EnabledView& view) const {
  for (const Dependency& dep : deps_) {
    DCDO_RETURN_IF_ERROR(Check(dep, view));
  }
  return Status::Ok();
}

std::vector<const Dependency*> DependencySet::BindingDependenciesOn(
    const std::string& function, const ObjectId& component,
    const EnabledView& view) const {
  std::vector<const Dependency*> out;
  for (const Dependency& dep : deps_) {
    if (dep.target != function) continue;
    if (dep.target_component.has_value() &&
        *dep.target_component != component) {
      continue;
    }
    if (HeadHolds(dep, view)) out.push_back(&dep);
  }
  return out;
}

}  // namespace dcdo
