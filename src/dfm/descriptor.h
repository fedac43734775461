// DFM descriptors and evolution plans (paper Sections 2.4, 3).
//
// A DfmDescriptor is the manager-side definition of one version of an object
// type: a DfmState plus the version identifier and the instantiable /
// configurable distinction. "A configurable version ... can be evolved and
// configured, but it cannot be used to create a new DCDO, or to evolve an
// existing DCDO, until the version is marked instantiable"; conversely an
// instantiable version's descriptor is frozen. This is what lets the
// <DCDO Manager, Version Id> pair uniquely identify an implementation.
//
// An EvolutionPlan is the diff between two configurations — which components
// to incorporate or remove, and which enables/disables to flip. The DCDO
// applies a plan when it evolves; the plan's component list also drives the
// evolution-cost accounting (cached map vs. download per component).
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/version_id.h"
#include "dfm/state.h"

namespace dcdo {

class DfmDescriptor {
 public:
  DfmDescriptor() = default;
  explicit DfmDescriptor(VersionId version) : version_(std::move(version)) {}

  const VersionId& version() const { return version_; }
  bool instantiable() const { return instantiable_; }
  const DfmState& state() const { return state_; }

  // --- Configuration (all fail with kVersionFrozen once instantiable) ---
  [[nodiscard]] Status IncorporateComponent(const ImplementationComponent& meta,
                              bool auto_structural_deps = true);
  [[nodiscard]] Status RemoveComponent(const ObjectId& component);
  [[nodiscard]] Status EnableFunction(const std::string& function, const ObjectId& component);
  [[nodiscard]] Status DisableFunction(const std::string& function,
                         const ObjectId& component);
  [[nodiscard]] Status SwitchImplementation(const std::string& function,
                              const ObjectId& to_component);
  [[nodiscard]] Status SetVisibility(const std::string& function, const ObjectId& component,
                       Visibility visibility);
  [[nodiscard]] Status MarkMandatory(const std::string& function);
  [[nodiscard]] Status MarkPermanent(const std::string& function, const ObjectId& component);
  [[nodiscard]] Status AddDependency(Dependency dep);
  [[nodiscard]] Status RemoveDependency(const Dependency& dep);

  // Freezes the descriptor after full validation (mandatory functions have
  // enabled implementations, permanent impls enabled, dependencies hold).
  [[nodiscard]] Status MarkInstantiable();

  // A configurable copy of this descriptor under a new (child) version id —
  // the paper's "logically copying an existing instantiable one".
  DfmDescriptor DeriveChild(const VersionId& child_version) const;

 private:
  [[nodiscard]] Status CheckConfigurable() const;

  VersionId version_;
  bool instantiable_ = false;
  DfmState state_;
};

// The delta a DCDO must apply to move between two configurations.
struct EvolutionPlan {
  // One enable or disable: (function, component). The name views the
  // component's function list, so it is valid while the configuration
  // holding that component (`from` or `to`) lives.
  using Flip = std::pair<std::string_view, ObjectId>;

  // The target's own records of the components to add: fetching and
  // incorporating them shares the target's metadata, copying nothing.
  std::vector<ComponentRecord> incorporate;
  std::vector<ObjectId> remove;
  // Enables/disables among components present in both configurations.
  std::vector<Flip> enable;
  std::vector<Flip> disable;

  bool NeedsNewComponents() const { return !incorporate.empty(); }
  bool Empty() const {
    return incorporate.empty() && remove.empty() && enable.empty() &&
           disable.empty();
  }
  std::size_t TotalSteps() const {
    return incorporate.size() + remove.size() + enable.size() +
           disable.size();
  }
};

// Diff `from` -> `to`. Components present only in `to` are incorporated (and
// their `to`-enabled functions enabled); components present only in `from`
// are removed; shared components contribute enable/disable flips.
EvolutionPlan ComputePlan(const DfmState& from, const DfmState& to);

}  // namespace dcdo
