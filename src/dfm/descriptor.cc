#include "dfm/descriptor.h"

namespace dcdo {

Status DfmDescriptor::CheckConfigurable() const {
  if (instantiable_) {
    return VersionFrozenError("version " + version_.ToString() +
                              " is instantiable and cannot be configured");
  }
  return Status::Ok();
}

Status DfmDescriptor::IncorporateComponent(const ImplementationComponent& meta,
                                           bool auto_structural_deps) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.IncorporateComponent(meta, auto_structural_deps);
}

Status DfmDescriptor::RemoveComponent(const ObjectId& component) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.RemoveComponent(component);
}

Status DfmDescriptor::EnableFunction(const std::string& function,
                                     const ObjectId& component) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.EnableFunction(function, component);
}

Status DfmDescriptor::DisableFunction(const std::string& function,
                                      const ObjectId& component) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.DisableFunction(function, component);
}

Status DfmDescriptor::SwitchImplementation(const std::string& function,
                                           const ObjectId& to_component) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.SwitchImplementation(function, to_component);
}

Status DfmDescriptor::SetVisibility(const std::string& function,
                                    const ObjectId& component,
                                    Visibility visibility) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.SetVisibility(function, component, visibility);
}

Status DfmDescriptor::MarkMandatory(const std::string& function) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.MarkMandatory(function);
}

Status DfmDescriptor::MarkPermanent(const std::string& function,
                                    const ObjectId& component) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.MarkPermanent(function, component);
}

Status DfmDescriptor::AddDependency(Dependency dep) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.AddDependency(std::move(dep));
}

Status DfmDescriptor::RemoveDependency(const Dependency& dep) {
  DCDO_RETURN_IF_ERROR(CheckConfigurable());
  return state_.RemoveDependency(dep);
}

Status DfmDescriptor::MarkInstantiable() {
  if (instantiable_) return Status::Ok();  // idempotent
  DCDO_RETURN_IF_ERROR(state_.ValidateComplete());
  instantiable_ = true;
  return Status::Ok();
}

DfmDescriptor DfmDescriptor::DeriveChild(const VersionId& child_version) const {
  DfmDescriptor child(child_version);
  child.state_ = state_.CopyWithRoom();  // logical copy
  child.instantiable_ = false;           // the copy is configurable
  return child;
}

EvolutionPlan ComputePlan(const DfmState& from, const DfmState& to) {
  EvolutionPlan plan;
  for (const ComponentRecord& record : to.components()) {
    if (!from.HasComponent(record->id)) plan.incorporate.push_back(record);
  }
  // Enable/disable flips, in one merge of the two row arrays. For newly
  // incorporated components, enables are included too (incorporation leaves
  // functions disabled); removals carry their disables implicitly.
  std::span<const DfmEntry> before = from.entries();
  std::span<const DfmEntry> after = to.entries();
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    const int order = b == before.end()  ? 1
                      : a == after.end() ? -1
                                         : CompareRows(*b, *a);
    if (order < 0) {  // only in `from`
      if (b->enabled && to.HasComponent(b->component)) ++plan.flips;
      ++b;
    } else if (order > 0) {  // only in `to`
      if (a->enabled) ++plan.flips;
      ++a;
    } else {
      if (a->enabled != b->enabled) ++plan.flips;
      ++b;
      ++a;
    }
  }
  return plan;
}

}  // namespace dcdo
