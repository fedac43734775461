#include "dfm/state.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "testing/fixtures.h"

namespace dcdo {
namespace {

class DfmStateTest : public ::testing::Test {
 protected:
  // Two components both implementing "f" plus some singletons.
  DfmStateTest() {
    comp_a_ = testing::MakeEchoComponent(registry_, "libA", {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(registry_, "libB", {"f", "h"});
  }

  NativeCodeRegistry registry_;
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  DfmState state_;
};

TEST_F(DfmStateTest, IncorporateAddsDisabledEntries) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  EXPECT_TRUE(state_.HasComponent(comp_a_.id));
  EXPECT_EQ(state_.component_count(), 1u);
  EXPECT_EQ(state_.entry_count(), 2u);
  EXPECT_EQ(state_.EnabledImpl("f"), nullptr) << "functions start disabled";
  EXPECT_TRUE(state_.AnyImplPresent("f"));
  EXPECT_TRUE(state_.ExportedInterface().empty());
}

TEST_F(DfmStateTest, DoubleIncorporateRejected) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  EXPECT_EQ(state_.IncorporateComponent(comp_a_).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(DfmStateTest, EnableExposesExportedFunction) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  const DfmEntry* entry = state_.EnabledImpl("f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->component, comp_a_.id);
  auto interface = state_.ExportedInterface();
  ASSERT_EQ(interface.size(), 1u);
  EXPECT_EQ(interface[0].name, "f");
}

TEST_F(DfmStateTest, OnlyOneImplementationEnabledPerFunction) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  Status second = state_.EnableFunction("f", comp_b_.id);
  EXPECT_EQ(second.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(DfmStateTest, SwitchReplacesImplementationAtomically) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.SwitchImplementation("f", comp_b_.id).ok());
  EXPECT_EQ(state_.EnabledImpl("f")->component, comp_b_.id);
  EXPECT_FALSE(state_.FindEntry("f", comp_a_.id)->enabled);
}

TEST_F(DfmStateTest, SwitchToUnknownComponentFails) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  EXPECT_EQ(state_.SwitchImplementation("f", comp_b_.id).code(),
            ErrorCode::kFunctionMissing);
}

TEST_F(DfmStateTest, EnableDisableAreIdempotent) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  EXPECT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.DisableFunction("f", comp_a_.id).ok());
  EXPECT_TRUE(state_.DisableFunction("f", comp_a_.id).ok());
}

TEST_F(DfmStateTest, RemoveComponentDropsRows) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.RemoveComponent(comp_a_.id).ok());
  EXPECT_FALSE(state_.HasComponent(comp_a_.id));
  EXPECT_EQ(state_.entry_count(), 0u);
  EXPECT_EQ(state_.RemoveComponent(comp_a_.id).code(),
            ErrorCode::kComponentMissing);
}

// --- Mandatory functions ---

TEST_F(DfmStateTest, MandatoryCannotBeDisabled) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.MarkMandatory("f").ok());
  EXPECT_EQ(state_.DisableFunction("f", comp_a_.id).code(),
            ErrorCode::kMandatoryViolation);
}

TEST_F(DfmStateTest, MandatoryCanStillBeSwitched) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.MarkMandatory("f").ok());
  EXPECT_TRUE(state_.SwitchImplementation("f", comp_b_.id).ok())
      << "mandatory pins the function, not the implementation";
}

TEST_F(DfmStateTest, MandatoryBlocksRemovalOfLastImplementation) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("g", comp_a_.id).ok());
  ASSERT_TRUE(state_.MarkMandatory("g").ok());  // only libA implements g
  EXPECT_EQ(state_.RemoveComponent(comp_a_.id).code(),
            ErrorCode::kMandatoryViolation);
}

TEST_F(DfmStateTest, MandatoryAllowsRemovalWhenAnotherImplExists) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_b_.id).ok());
  ASSERT_TRUE(state_.MarkMandatory("f").ok());
  // libA's f is disabled and libB still implements f: removal is fine.
  EXPECT_TRUE(state_.RemoveComponent(comp_a_.id).ok());
}

TEST_F(DfmStateTest, MarkMandatoryUnknownFunctionFails) {
  EXPECT_EQ(state_.MarkMandatory("ghost").code(),
            ErrorCode::kFunctionMissing);
}

// --- Permanent implementations ---

TEST_F(DfmStateTest, PermanentCannotBeDisabledSwitchedOrRemoved) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.MarkPermanent("f", comp_a_.id).ok());
  EXPECT_TRUE(state_.FindEntry("f", comp_a_.id)->enabled)
      << "marking permanent enables the implementation";

  EXPECT_EQ(state_.DisableFunction("f", comp_a_.id).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_EQ(state_.SwitchImplementation("f", comp_b_.id).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_EQ(state_.RemoveComponent(comp_a_.id).code(),
            ErrorCode::kPermanentViolation);
}

TEST_F(DfmStateTest, TwoPermanentImplsOfSameFunctionRejected) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.MarkPermanent("f", comp_a_.id).ok());
  EXPECT_EQ(state_.MarkPermanent("f", comp_b_.id).code(),
            ErrorCode::kPermanentViolation);
}

// The paper's incorporate-conflict rule: a component carrying a permanent F
// cannot join a DFM that already has a different permanent impl of F.
TEST_F(DfmStateTest, IncorporateConflictingPermanentRejected) {
  auto perm_a = ComponentBuilder("permA")
                    .AddFunction("f", "v()", "permA/f", Visibility::kExported,
                                 Constraint::kPermanent)
                    .Build();
  auto perm_b = ComponentBuilder("permB")
                    .AddFunction("f", "v()", "permB/f", Visibility::kExported,
                                 Constraint::kPermanent)
                    .Build();
  ASSERT_TRUE(perm_a.ok());
  ASSERT_TRUE(perm_b.ok());
  ASSERT_TRUE(state_.IncorporateComponent(*perm_a).ok());
  Status conflict = state_.IncorporateComponent(*perm_b);
  EXPECT_EQ(conflict.code(), ErrorCode::kPermanentViolation);
  EXPECT_FALSE(state_.HasComponent(perm_b->id)) << "incorporate rolled back";
}

// Incorporate is all-or-nothing: when a component's permanent function
// cannot be enabled (another component's "f" already is), the rollback must
// take the component's mandatory mark on "m" with it, or the table would
// demand an implementation of a function nothing provides.
TEST_F(DfmStateTest, RejectedIncorporateLeavesNoMandatoryMark) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  auto late = ComponentBuilder("libP")
                  .AddFunction("m", "v()", "libP/m", Visibility::kExported,
                               Constraint::kMandatory)
                  .AddFunction("f", "v()", "libP/f", Visibility::kExported,
                               Constraint::kPermanent)
                  .Build();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(state_.IncorporateComponent(*late).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_FALSE(state_.HasComponent(late->id));
  EXPECT_EQ(state_.entry_count(), 2u);
  EXPECT_FALSE(state_.IsMandatory("m"));
  EXPECT_TRUE(state_.CheckIntegrity().empty());
  EXPECT_TRUE(state_.ValidateComplete().ok());
}

// A `calls` hint naming the empty string is a malformed Type A dependency;
// the component must be refused before any of it is recorded.
TEST_F(DfmStateTest, EmptyCalleeRejectedBeforeAnyRowIsAdded) {
  // Assembled by hand: ComponentBuilder::Build would refuse it.
  ImplementationComponent bad;
  bad.id = ObjectId::Next(domains::kComponent);
  bad.name = "libE";
  bad.code_bytes = 1024;
  FunctionImplDescriptor fn;
  fn.function = FunctionSignature{"f", "v()"};
  fn.symbol = "libE/f";
  fn.calls = {""};
  bad.functions.push_back(fn);
  EXPECT_EQ(state_.IncorporateComponent(bad).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(state_.HasComponent(bad.id));
  EXPECT_EQ(state_.entry_count(), 0u);
  EXPECT_EQ(state_.dependencies().size(), 0u);
}

TEST_F(DfmStateTest, ComponentMandatoryMarkingApplies) {
  auto with_mandatory =
      ComponentBuilder("libM")
          .AddFunction("core", "v()", "libM/core", Visibility::kExported,
                       Constraint::kMandatory)
          .Build();
  ASSERT_TRUE(with_mandatory.ok());
  ASSERT_TRUE(state_.IncorporateComponent(*with_mandatory).ok());
  EXPECT_TRUE(state_.IsMandatory("core"));
}

// --- Dependencies in mutations ---

TEST_F(DfmStateTest, DisableBlockedByBindingDependency) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.EnableFunction("g", comp_a_.id).ok());
  ASSERT_TRUE(state_.AddDependency(Dependency::TypeD("f", "g")).ok());
  EXPECT_EQ(state_.DisableFunction("g", comp_a_.id).code(),
            ErrorCode::kDependencyViolation);
  // Disable the dependent first, and the constraint retracts.
  ASSERT_TRUE(state_.DisableFunction("f", comp_a_.id).ok());
  EXPECT_TRUE(state_.DisableFunction("g", comp_a_.id).ok());
}

TEST_F(DfmStateTest, EnableBlockedWhenItsOwnDependencyUnmet) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.AddDependency(
      Dependency::TypeA("f", comp_a_.id, "g")).ok());
  EXPECT_EQ(state_.EnableFunction("f", comp_a_.id).code(),
            ErrorCode::kDependencyViolation)
      << "f structurally needs g, which is disabled";
  ASSERT_TRUE(state_.EnableFunction("g", comp_a_.id).ok());
  EXPECT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
}

TEST_F(DfmStateTest, RemoveComponentBlockedByDependencyFromOutside) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(state_.EnableFunction("h", comp_b_.id).ok());
  ASSERT_TRUE(state_.EnableFunction("g", comp_a_.id).ok());
  // h (libB) behaviorally depends on g's implementation in libA.
  ASSERT_TRUE(state_.AddDependency(
      Dependency::TypeC("h", "g", comp_a_.id)).ok());
  EXPECT_EQ(state_.RemoveComponent(comp_a_.id).code(),
            ErrorCode::kDependencyViolation);
}

TEST_F(DfmStateTest, AddDependencyRetroactivelyViolatedRejected) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  // f is enabled and g is not: adding [f]->[g] now would be instantly
  // violated, so the add must fail.
  EXPECT_EQ(state_.AddDependency(Dependency::TypeD("f", "g")).code(),
            ErrorCode::kDependencyViolation);
}

TEST_F(DfmStateTest, AutoStructuralDepsFromComponentHints) {
  auto caller = ComponentBuilder("caller")
                    .AddFunction("outer", "v()", "caller/outer",
                                 Visibility::kExported,
                                 Constraint::kFullyDynamic, {"inner"})
                    .Build();
  ASSERT_TRUE(caller.ok());
  testing::RegisterEcho(registry_, "caller/outer", "outer");
  ASSERT_TRUE(state_.IncorporateComponent(*caller,
                                          /*auto_structural_deps=*/true).ok());
  EXPECT_EQ(state_.dependencies().size(), 1u);
  // outer cannot be enabled until some impl of inner exists and is enabled.
  EXPECT_EQ(state_.EnableFunction("outer", caller->id).code(),
            ErrorCode::kDependencyViolation);
}

// --- Visibility ---

TEST_F(DfmStateTest, VisibilityEditsTrackedAndPermanentFrozen) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.SetVisibility("f", comp_a_.id,
                                   Visibility::kInternal).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  EXPECT_TRUE(state_.ExportedInterface().empty());

  ASSERT_TRUE(state_.MarkPermanent("f", comp_a_.id).ok());
  EXPECT_EQ(state_.SetVisibility("f", comp_a_.id,
                                 Visibility::kExported).code(),
            ErrorCode::kPermanentViolation);
}

// --- ValidateComplete (instantiability) ---

TEST_F(DfmStateTest, ValidateCompleteRequiresMandatoryEnabled) {
  ASSERT_TRUE(state_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(state_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(state_.MarkMandatory("f").ok());
  EXPECT_TRUE(state_.ValidateComplete().ok());

  // A freshly incorporated mandatory function with no enabled impl fails.
  auto needs = ComponentBuilder("needs")
                   .AddFunction("must", "v()", "needs/must",
                                Visibility::kExported, Constraint::kMandatory)
                   .Build();
  ASSERT_TRUE(needs.ok());
  testing::RegisterEcho(registry_, "needs/must", "must");
  ASSERT_TRUE(state_.IncorporateComponent(*needs).ok());
  EXPECT_EQ(state_.ValidateComplete().code(),
            ErrorCode::kMandatoryViolation);
  ASSERT_TRUE(state_.EnableFunction("must", needs->id).ok());
  EXPECT_TRUE(state_.ValidateComplete().ok());
}

TEST_F(DfmStateTest, IncorporateKeepsTheGivenRecord) {
  auto record = std::make_shared<const ImplementationComponent>(comp_a_);
  ASSERT_TRUE(state_.IncorporateComponent(record).ok());
  EXPECT_EQ(state_.SharedComponent(comp_a_.id).get(), record.get());
  EXPECT_EQ(state_.FindComponent(comp_a_.id), record.get());
  EXPECT_EQ(state_.FindEntry("f", comp_a_.id)->impl,
            &record->functions[0]);
}

// Every row as the configuration sees it, for before/after comparisons.
using RowView = std::tuple<const FunctionImplDescriptor*, ObjectId, bool,
                           bool, Visibility>;
std::vector<RowView> RowSnapshot(const DfmState& state) {
  std::vector<RowView> rows;
  for (const DfmEntry& row : state.entries()) {
    rows.emplace_back(row.impl, row.component, row.enabled, row.permanent,
                      row.visibility);
  }
  return rows;
}

// Rows placed by binary search stay in CompareRows order however the
// components arrive, and every row stays findable.
TEST_F(DfmStateTest, IncorporateKeepsRowsSortedInAnyOrder) {
  const std::vector<ImplementationComponent> components =
      testing::MakeInterleavedComponents(registry_, 60, /*seed=*/7);
  std::size_t expected_rows = 0;
  for (std::size_t step = 0; step < components.size(); ++step) {
    ASSERT_TRUE(state_.IncorporateComponent(components[step]).ok());
    expected_rows += components[step].functions.size();
    std::span<const DfmEntry> rows = state_.entries();
    ASSERT_EQ(rows.size(), expected_rows);
    for (std::size_t i = 1; i < rows.size(); ++i) {
      ASSERT_LT(CompareRows(rows[i - 1], rows[i]), 0)
          << "step " << step << ": rows " << i - 1 << " and " << i
          << " out of order";
    }
    for (std::size_t done = 0; done <= step; ++done) {
      for (const FunctionImplDescriptor& fn : components[done].functions) {
        const DfmEntry* row =
            state_.FindEntry(fn.function.name, components[done].id);
        ASSERT_NE(row, nullptr) << fn.function.name << " lost at step " << step;
        EXPECT_EQ(row->impl->symbol, fn.symbol);
      }
    }
  }
  EXPECT_EQ(state_.Rows("shared0").size(), 12u);
  EXPECT_TRUE(state_.CheckIntegrity().empty());
}

// Both ways a permanent conflict rejects an incorporate — another component
// already holds the permanent implementation, or already has the function
// enabled so the permanent one cannot be — leave the rows as they were.
TEST_F(DfmStateTest, PermanentConflictLeavesRowsUnchanged) {
  for (const ImplementationComponent& component :
       testing::MakeInterleavedComponents(registry_, 20, /*seed=*/3)) {
    ASSERT_TRUE(state_.IncorporateComponent(component).ok());
  }
  auto permanent = [](const std::string& name, const std::string& function) {
    return ComponentBuilder(name)
        .AddFunction(name + "_x", "v()", name + "/x")
        .AddFunction(function, "v()", name + "/" + function,
                     Visibility::kExported, Constraint::kPermanent)
        .Build();
  };
  auto holder = permanent("p1", "shared1");
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(state_.IncorporateComponent(*holder).ok());
  const auto before_rival = RowSnapshot(state_);
  auto rival = permanent("p2", "shared1");
  ASSERT_TRUE(rival.ok());
  EXPECT_EQ(state_.IncorporateComponent(*rival).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_EQ(RowSnapshot(state_), before_rival);

  const ObjectId enabled_first = state_.Rows("shared2")[0].component;
  ASSERT_TRUE(state_.EnableFunction("shared2", enabled_first).ok());
  const auto before_blocked = RowSnapshot(state_);
  auto blocked = permanent("p3", "shared2");
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(state_.IncorporateComponent(*blocked).code(),
            ErrorCode::kPermanentViolation);
  EXPECT_EQ(RowSnapshot(state_), before_blocked);
  EXPECT_FALSE(state_.HasComponent(blocked->id));
  EXPECT_TRUE(state_.CheckIntegrity().empty());
}

}  // namespace
}  // namespace dcdo
