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
// An EvolutionPlan is what an evolution between two configurations costs
// beyond its commit: the components to fetch and incorporate (each a cached
// map or a download) and the number of enable/disable flips.
#pragma once

#include <cstddef>
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

// What an evolution between two configurations must do beyond committing
// the target table: fetch and incorporate the components `to` adds, and pay
// one DFM update per enable/disable it flips.
struct EvolutionPlan {
  // The target's own records of the components to add: fetching and
  // incorporating them shares the target's metadata, copying nothing.
  std::vector<ComponentRecord> incorporate;
  // Enables and disables that differ between the two tables: a function
  // enabled in a newly incorporated component counts as one, a component
  // the target drops counts none.
  std::size_t flips = 0;
};

// Diff `from` -> `to`, in one merge of the two row arrays.
EvolutionPlan ComputePlan(const DfmState& from, const DfmState& to);

}  // namespace dcdo
