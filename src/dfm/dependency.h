// Function dependencies (paper Section 3.2, "Function Dependencies").
//
// Four dependency kinds restrict how a DCDO may be reconfigured:
//
//   Type A  [F1,C1] -> [F2]     structural: if the impl of F1 in C1 is
//                               enabled, SOME impl of F2 must be enabled.
//   Type B  [F1,C1] -> [F2,C2]  behavioral: if the impl of F1 in C1 is
//                               enabled, the impl of F2 in C2 must be enabled.
//   Type C  [F1]    -> [F2,C2]  behavioral: if ANY impl of F1 is enabled, the
//                               impl of F2 in C2 must be enabled.
//   Type D  [F1]    -> [F2]     structural: if ANY impl of F1 is enabled,
//                               SOME impl of F2 must be enabled.
//
// Dependencies bind only while their head is enabled — disabling or removing
// the dependent function "retracts" the constraint, which is exactly what
// distinguishes dependencies from blanket mandatory/permanent markings.
#pragma once

#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"

namespace dcdo {

enum class DependencyKind : std::uint8_t { kTypeA, kTypeB, kTypeC, kTypeD };

std::string_view DependencyKindName(DependencyKind kind);

struct Dependency {
  DependencyKind kind = DependencyKind::kTypeD;
  std::string dependent;                     // F1
  std::optional<ObjectId> dependent_component;  // C1 (Types A, B)
  std::string target;                        // F2
  std::optional<ObjectId> target_component;  // C2 (Types B, C)

  static Dependency TypeA(std::string f1, ObjectId c1, std::string f2);
  static Dependency TypeB(std::string f1, ObjectId c1, std::string f2,
                          ObjectId c2);
  static Dependency TypeC(std::string f1, std::string f2, ObjectId c2);
  static Dependency TypeD(std::string f1, std::string f2);

  // Structural consistency of the record itself (the right optional fields
  // are present for the kind).
  [[nodiscard]] Status Validate() const;

  std::string ToString() const;

  friend bool operator==(const Dependency&, const Dependency&) = default;
};

std::ostream& operator<<(std::ostream& os, const Dependency& dep);

// What the dependency checker needs to know about a configuration: which
// (function, component) implementations are enabled. DfmState::Overlay reads
// a live table plus a mutation's pending flips through this interface, so
// validating a mutation copies nothing.
class EnabledView {
 public:
  virtual bool IsEnabled(const std::string& function,
                         const ObjectId& component) const = 0;
  virtual bool AnyEnabled(const std::string& function) const = 0;

 protected:
  ~EnabledView() = default;
};

// A free-standing, set-backed EnabledView for exercising DependencySet
// without a DfmState.
class EnabledSnapshot final : public EnabledView {
 public:
  void Enable(const std::string& function, const ObjectId& component) {
    enabled_.insert({function, component});
  }
  void Disable(const std::string& function, const ObjectId& component) {
    enabled_.erase({function, component});
  }
  bool IsEnabled(const std::string& function,
                 const ObjectId& component) const override {
    return enabled_.contains({function, component});
  }
  bool AnyEnabled(const std::string& function) const override;

 private:
  std::set<std::pair<std::string, ObjectId>> enabled_;
};

class DependencySet {
 public:
  // Duplicate dependencies are idempotently ignored.
  [[nodiscard]] Status Add(Dependency dep);
  // Exact-match removal; kNotFound if absent.
  [[nodiscard]] Status Remove(const Dependency& dep);

  const std::vector<Dependency>& all() const { return deps_; }
  std::size_t size() const { return deps_.size(); }

  // First violated dependency in `view`, or OK. Every dependency is
  // checked, in insertion order. A dependency is violated when its head
  // condition holds but its target condition does not.
  [[nodiscard]] Status Validate(const EnabledView& view) const;
  // The same check for one dependency, whether or not it is in a set.
  [[nodiscard]] static Status Check(const Dependency& dep,
                                    const EnabledView& view);

  // True if some *currently binding* dependency (head enabled in `view`)
  // has (function, component) — or any impl of `function` for structural
  // targets — as its target. Used by thread-activity policies: disabling a
  // depended-on implementation can be deferred while dependents are active.
  std::vector<const Dependency*> BindingDependenciesOn(
      const std::string& function, const ObjectId& component,
      const EnabledView& view) const;

 private:
  static bool HeadHolds(const Dependency& dep, const EnabledView& view);
  static bool TargetHolds(const Dependency& dep, const EnabledView& view);

  std::vector<Dependency> deps_;
};

}  // namespace dcdo
