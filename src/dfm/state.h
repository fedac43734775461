// DfmState: the configuration table shared by runtime DFMs and manager-side
// DFM descriptors.
//
// The paper notes that "a DFM descriptor's structure mirrors that of a DFM";
// we exploit that by implementing the table once. DfmState records which
// components are incorporated, which (function, component) implementations
// exist and are enabled/exported, the function-level mandatory markings,
// the implementation-level permanent markings, and the dependency set — and
// enforces every restriction of Section 3.2 on each mutation:
//
//   * at most one enabled implementation per function (the DFM maps a call
//     to THE implementation that services it),
//   * permanent implementations cannot be disabled, replaced, or removed,
//   * the last enabled implementation of a mandatory function cannot be
//     disabled, and its last present implementation cannot be removed,
//   * no mutation may leave a binding dependency (Types A-D) violated,
//   * two components cannot both carry a permanent implementation of the
//     same function (the paper's incorporate-conflict rule).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "component/component.h"
#include "dfm/dependency.h"

namespace dcdo {

// One (function, component) implementation row.
struct DfmEntry {
  FunctionSignature function;
  ObjectId component;
  Visibility visibility = Visibility::kExported;
  bool enabled = false;
  bool permanent = false;
  std::string symbol;
};

class DfmState {
 public:
  using EntryKey = std::pair<std::string, ObjectId>;  // (function, component)

  // --- Configuration functions (mirror a DCDO's external interface) ---

  // Adds all of `meta`'s function implementations, disabled. Honours the
  // component author's constraint markings: kMandatory marks the function
  // mandatory; kPermanent marks the impl permanent (and enables it, since a
  // permanent impl may never be disabled). If `auto_structural_deps`, the
  // component's `calls` hints become Type A dependencies. All-or-nothing: a
  // rejected incorporate leaves no row, mark or dependency behind.
  [[nodiscard]] Status IncorporateComponent(const ImplementationComponent& meta,
                              bool auto_structural_deps = true);

  // Removes the component and all its rows. Fails on permanent impls,
  // on mandatory functions whose only implementation lives here, and on
  // dependency violations.
  [[nodiscard]] Status RemoveComponent(const ObjectId& component);

  // Enables the (function, component) implementation. Fails if another
  // implementation of the function is already enabled (disable or Switch
  // first), or if enabling would leave the new configuration violating a
  // dependency (e.g. a Type A dep of this impl with no enabled target).
  [[nodiscard]] Status EnableFunction(const std::string& function,
                        const ObjectId& component);

  // Disables the implementation. Fails on permanent impls, on the last
  // enabled impl of a mandatory function, and on dependency violations.
  [[nodiscard]] Status DisableFunction(const std::string& function,
                         const ObjectId& component);

  // Atomically disables whichever impl of `function` is enabled (if any) and
  // enables the one in `to_component` — the paper's "change the
  // implementation of a function while keeping its signature the same".
  [[nodiscard]] Status SwitchImplementation(const std::string& function,
                              const ObjectId& to_component);

  // Changes an implementation's visibility (add to / remove from the public
  // interface without touching enablement).
  [[nodiscard]] Status SetVisibility(const std::string& function, const ObjectId& component,
                       Visibility visibility);

  // Constraint markings. Marks may only be strengthened: a mandatory function
  // stays mandatory in every configuration derived from this one.
  [[nodiscard]] Status MarkMandatory(const std::string& function);
  [[nodiscard]] Status MarkPermanent(const std::string& function, const ObjectId& component);

  [[nodiscard]] Status AddDependency(Dependency dep);
  [[nodiscard]] Status RemoveDependency(const Dependency& dep);

  // --- Status-reporting queries ---

  bool HasComponent(const ObjectId& component) const {
    return components_.contains(component);
  }
  const ImplementationComponent* FindComponent(const ObjectId& component) const;
  // The same record, co-owned, for a caller that needs it after the
  // component is removed. Copies of a configuration (derived versions,
  // evolution targets, instances that adopted one) share these records
  // instead of copying each component's function list.
  std::shared_ptr<const ImplementationComponent> SharedComponent(
      const ObjectId& component) const;
  std::vector<ObjectId> ComponentIds() const;
  std::size_t component_count() const { return components_.size(); }

  const DfmEntry* FindEntry(const std::string& function,
                            const ObjectId& component) const;
  // The enabled implementation of `function`, if any.
  const DfmEntry* EnabledImpl(const std::string& function) const;
  bool AnyImplPresent(const std::string& function) const;
  bool IsMandatory(const std::string& function) const {
    return mandatory_.contains(function);
  }

  // Enabled + exported functions: what a client sees when it asks for the
  // object's interface.
  std::vector<FunctionSignature> ExportedInterface() const;
  // Every row (used to build diffs and by tests).
  std::vector<const DfmEntry*> AllEntries() const;
  std::size_t entry_count() const { return entries_.size(); }

  const DependencySet& dependencies() const { return deps_; }
  const std::set<std::string>& mandatory_functions() const {
    return mandatory_;
  }

  // The enabled set as a mutation proposes to leave it: this table with up
  // to two pending flips applied and, optionally, one component's rows read
  // as gone. Every read goes to the live rows, so validating a mutation
  // copies nothing. The overlay holds references: the state and the flipped
  // names must outlive it.
  class Overlay final : public EnabledView {
   public:
    explicit Overlay(const DfmState& state) : state_(&state) {}
    // Reads the existing row (function, component) as `enabled`.
    Overlay& Flip(const std::string& function, const ObjectId& component,
                  bool enabled);
    // Reads every row of `component` as disabled.
    Overlay& Drop(const ObjectId& component);

    bool IsEnabled(const std::string& function,
                   const ObjectId& component) const override;
    bool AnyEnabled(const std::string& function) const override;

   private:
    struct Pending {
      const std::string* function = nullptr;
      const ObjectId* component = nullptr;
      bool enabled = false;
    };
    bool RowEnabled(const DfmEntry& row) const;

    const DfmState* state_;
    std::array<Pending, 2> flips_{};
    std::size_t flip_count_ = 0;
    const ObjectId* dropped_ = nullptr;
  };
  // This table's enabled set as it stands.
  Overlay Enabled() const { return Overlay(*this); }

  // Wholesale adoption of `target`'s configuration during evolution, applied
  // atomically so legal version-to-version moves never trip over transient
  // orderings of individual enable/disable calls. Preconditions: every
  // target entry already exists here (incorporate new components first).
  // Entries absent from the target are disabled (they belong to components
  // about to be removed). Metadata (visibility, mandatory, permanent,
  // dependencies) is replaced by the target's, and components both tables
  // hold share the target's metadata record.
  //
  // With `enforce_marks` (the increasing-version and hybrid policies), the
  // move is rejected if it would disable a currently-permanent
  // implementation or leave a currently-mandatory function without an
  // enabled implementation; marks are then carried forward (union). Without
  // it (the general-evolution policy), the target's marks replace the
  // current ones outright — the paper notes general evolution "undermines
  // the use of mandatory and permanent functions".
  [[nodiscard]] Status AdoptConfiguration(const DfmState& target, bool enforce_marks);

  // Full-configuration validation, required before a version may be marked
  // instantiable: every mandatory function has an enabled implementation,
  // every permanent implementation is enabled, and no binding dependency is
  // violated.
  [[nodiscard]] Status ValidateComplete() const;

  // Structural self-check for the checking layer (dfm-integrity invariant):
  // conditions every mutation path is supposed to preserve at every event
  // boundary, phrased as one string per anomaly. Unlike ValidateComplete
  // (which gates instantiability and may legitimately fail mid-build), an
  // anomaly here means table state no mutation sequence should produce:
  // two enabled implementations of one function, a permanent implementation
  // that is disabled, a mandatory function with no implementation present,
  // or a row referencing a component that is not incorporated.
  std::vector<std::string> CheckIntegrity() const;

 private:
  using EntryMap = std::map<EntryKey, DfmEntry>;

  // `function`'s rows, contiguous in the (function, component) order.
  std::ranges::subrange<EntryMap::const_iterator> Rows(
      const std::string& function) const;

  std::map<ObjectId, std::shared_ptr<const ImplementationComponent>>
      components_;
  EntryMap entries_;
  std::set<std::string> mandatory_;
  DependencySet deps_;
};

}  // namespace dcdo
