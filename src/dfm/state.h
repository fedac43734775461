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
//
// Layout. The rows are one contiguous array in (function, component)
// order, and the incorporated components one array of shared metadata
// records in id order. A row is a component id, a pointer to its
// FunctionImplDescriptor inside that component's function list, the
// function's interned FunctionId and three bits, so a copy — a derived
// version, an evolution target, the configuration an instance committed —
// is a handful of allocations and 32 bytes a row, whatever the names and
// symbols weigh. Incorporate interns each name once, and every copy of a
// row carries the id, so the runtime DFM finds a function's slot by id.
// Incorporate keeps the record it is given, and an evolution commits its
// target's records, so every instance of a version shares one copy of each
// component's metadata, and a record made from a by-value copy still
// shares the component's one function list. Each new row finds its place
// by binary search and the rows after it move as one block. Lookups are
// binary searches, one per mutation: a mutation of (function, component)
// finds the function's rows once and reads the component's row and the
// enabled one from them. The table-to-table operations (EvolvedTo,
// ComputePlan) are linear merges of two sorted arrays. A component's rows
// and its record's function list are the same set, and while a component
// stays incorporated its functions keep their positions in the list (an
// evolution takes the target's record of a component it keeps only when
// that record lists the same functions and symbols in the same order), so
// FunctionIndex is stable and DynamicFunctionMapper indexes its
// per-component bodies by it.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "component/component.h"
#include "dfm/dependency.h"
#include "dfm/function_id.h"

namespace dcdo {

// One (function, component) implementation row. A row holds only what a
// configuration owns: the enabled, visibility and permanent bits. The
// function's name, signature, symbol and author's constraint stay in the
// component's shared function list, which `impl` points into, so copying
// a table copies no string.
struct DfmEntry {
  ObjectId component;
  const FunctionImplDescriptor* impl = nullptr;
  FunctionId function_id;  // name() interned; rows of one function share it
  Visibility visibility = Visibility::kExported;
  bool enabled = false;
  bool permanent = false;

  const FunctionSignature& function() const { return impl->function; }
  const std::string& name() const { return impl->function.name; }
  const std::string& symbol() const { return impl->symbol; }
};
static_assert(sizeof(DfmEntry) == 32,
              "a row is copied with every table: keep it at 32 bytes");

// The table's row order: by function name, then component. Negative,
// zero or positive like std::string::compare. Two rows that share a
// descriptor are the same row, which settles most comparisons between
// tables that share metadata without reading a name.
int CompareRows(const DfmEntry& a, const DfmEntry& b);

class DfmState {
 public:
  // --- Configuration functions (mirror a DCDO's external interface) ---

  // Adds all of `meta`'s function implementations, disabled, keeping
  // `meta` itself as the component's record (SharedComponent returns it)
  // and interning each function's name into its rows' function_id.
  // Honours the component author's constraint markings: kMandatory marks
  // the function mandatory; kPermanent marks the impl permanent (and
  // enables it, since a permanent impl may never be disabled). If
  // `auto_structural_deps`, the component's `calls` hints become Type A
  // dependencies. All-or-nothing: a rejected incorporate leaves no row,
  // mark or dependency behind.
  [[nodiscard]] Status IncorporateComponent(ComponentRecord meta,
                                            bool auto_structural_deps = true);
  // The same, for metadata held by value: makes its record, once.
  [[nodiscard]] Status IncorporateComponent(const ImplementationComponent& meta,
                                            bool auto_structural_deps = true) {
    return IncorporateComponent(
        std::make_shared<const ImplementationComponent>(meta),
        auto_structural_deps);
  }

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
    return FindComponent(component) != nullptr;
  }
  const ImplementationComponent* FindComponent(const ObjectId& component) const;
  // The same record, co-owned, for a caller that needs it after the
  // component is removed. Copies of a configuration (derived versions,
  // evolution targets, the instances of a version) share these records
  // instead of copying each component's function list.
  ComponentRecord SharedComponent(const ObjectId& component) const;
  // Every incorporated component's record, in id order.
  std::span<const ComponentRecord> components() const { return components_; }
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
  // `function`'s rows, contiguous in the (function, component) order.
  std::span<const DfmEntry> Rows(const std::string& function) const;
  // `row`'s position in its component's function list.
  std::size_t FunctionIndex(const DfmEntry& row) const;

  // Enabled + exported functions: what a client sees when it asks for the
  // object's interface.
  std::vector<FunctionSignature> ExportedInterface() const;
  // Every row, in (function, component) order.
  std::span<const DfmEntry> entries() const { return rows_; }
  std::size_t entry_count() const { return rows_.size(); }

  const DependencySet& dependencies() const { return deps_; }
  const std::set<std::string>& mandatory_functions() const {
    return mandatory_;
  }

  // The enabled set as a mutation proposes to leave it: this table with up
  // to two pending flips applied and, optionally, one component's rows read
  // as gone. Every read goes to the live rows, so validating a mutation
  // copies nothing. The overlay holds references: the state and the dropped
  // component id must outlive it.
  class Overlay final : public EnabledView {
   public:
    explicit Overlay(const DfmState& state) : state_(&state) {}
    // Reads `row`, one of the state's rows, as `enabled`.
    Overlay& Flip(const DfmEntry& row, bool enabled);
    // Reads every row of `component` as disabled.
    Overlay& Drop(const ObjectId& component);

    bool IsEnabled(const std::string& function,
                   const ObjectId& component) const override;
    bool AnyEnabled(const std::string& function) const override;

   private:
    struct Pending {
      const DfmEntry* row = nullptr;
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

  // A copy with room for one more component of this table's average size:
  // a derived version usually gains one, and its first incorporate then
  // moves no existing row.
  DfmState CopyWithRoom() const;

  // The table an evolution from this configuration to `target` commits:
  // `target` itself, with this table's marks carried forward when
  // `enforce_marks` (the increasing-version and hybrid policies). Without
  // it (the general-evolution policy) the target's marks replace the
  // current ones — the paper notes general evolution "undermines the use
  // of mandatory and permanent functions". Fails, taking nothing from
  // `target`, when a component both tables hold lists other functions or
  // symbols in the target (a DFM's bodies for it follow this table's
  // record), or, with `enforce_marks`, when the move would disable or drop
  // a permanent implementation or leave a mandatory function disabled.
  [[nodiscard]] Result<DfmState> EvolvedTo(DfmState&& target,
                                           bool enforce_marks) const;

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
  // First row not ordered before (function, component).
  std::vector<DfmEntry>::const_iterator LowerBound(
      const std::string& function, const ObjectId& component) const;
  // What a mutation of (function, component) reads, from one search:
  // `function`'s rows, and among them `component`'s row and the enabled
  // one (either null when absent).
  struct FunctionRows {
    std::span<DfmEntry> rows;
    DfmEntry* row = nullptr;
    DfmEntry* enabled = nullptr;
  };
  FunctionRows Locate(const std::string& function, const ObjectId& component);
  std::vector<ComponentRecord>::const_iterator FindComponentRef(
      const ObjectId& component) const;

  std::vector<ComponentRecord> components_;  // sorted by id
  std::vector<DfmEntry> rows_;               // sorted by CompareRows
  std::set<std::string> mandatory_;
  DependencySet deps_;
};

}  // namespace dcdo
