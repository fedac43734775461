#include "dfm/descriptor.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace dcdo {
namespace {

class DescriptorTest : public ::testing::Test {
 protected:
  DescriptorTest() : descriptor_(VersionId::Root()) {
    comp_a_ = testing::MakeEchoComponent(registry_, "libA", {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(registry_, "libB", {"f"});
  }

  NativeCodeRegistry registry_;
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
  DfmDescriptor descriptor_;
};

TEST_F(DescriptorTest, StartsConfigurable) {
  EXPECT_FALSE(descriptor_.instantiable());
  EXPECT_EQ(descriptor_.version(), VersionId::Root());
  EXPECT_TRUE(descriptor_.IncorporateComponent(comp_a_).ok());
  EXPECT_TRUE(descriptor_.EnableFunction("f", comp_a_.id).ok());
}

TEST_F(DescriptorTest, MarkInstantiableFreezes) {
  ASSERT_TRUE(descriptor_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(descriptor_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(descriptor_.MarkInstantiable().ok());
  EXPECT_TRUE(descriptor_.instantiable());

  // "The DFM descriptor of an instantiable version cannot be changed."
  EXPECT_EQ(descriptor_.IncorporateComponent(comp_b_).code(),
            ErrorCode::kVersionFrozen);
  EXPECT_EQ(descriptor_.EnableFunction("g", comp_a_.id).code(),
            ErrorCode::kVersionFrozen);
  EXPECT_EQ(descriptor_.DisableFunction("f", comp_a_.id).code(),
            ErrorCode::kVersionFrozen);
  EXPECT_EQ(descriptor_.RemoveComponent(comp_a_.id).code(),
            ErrorCode::kVersionFrozen);
  EXPECT_EQ(descriptor_.MarkMandatory("f").code(), ErrorCode::kVersionFrozen);
  EXPECT_EQ(descriptor_.AddDependency(Dependency::TypeD("f", "g")).code(),
            ErrorCode::kVersionFrozen);
}

TEST_F(DescriptorTest, MarkInstantiableIsIdempotent) {
  ASSERT_TRUE(descriptor_.MarkInstantiable().ok());
  EXPECT_TRUE(descriptor_.MarkInstantiable().ok());
}

TEST_F(DescriptorTest, MarkInstantiableValidates) {
  auto needs = ComponentBuilder("needs")
                   .AddFunction("must", "v()", "needs/must",
                                Visibility::kExported, Constraint::kMandatory)
                   .Build();
  ASSERT_TRUE(needs.ok());
  ASSERT_TRUE(descriptor_.IncorporateComponent(*needs).ok());
  // Mandatory function with no enabled implementation: cannot freeze.
  EXPECT_EQ(descriptor_.MarkInstantiable().code(),
            ErrorCode::kMandatoryViolation);
  ASSERT_TRUE(descriptor_.EnableFunction("must", needs->id).ok());
  EXPECT_TRUE(descriptor_.MarkInstantiable().ok());
}

TEST_F(DescriptorTest, DeriveChildCopiesConfigurationUnfrozen) {
  ASSERT_TRUE(descriptor_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(descriptor_.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(descriptor_.MarkInstantiable().ok());

  DfmDescriptor child = descriptor_.DeriveChild(VersionId::Root().Child(1));
  EXPECT_EQ(child.version().ToString(), "1.1");
  EXPECT_FALSE(child.instantiable());
  // The copy starts from the parent's configuration...
  EXPECT_NE(child.state().EnabledImpl("f"), nullptr);
  // ...and is independently editable.
  ASSERT_TRUE(child.EnableFunction("g", comp_a_.id).ok());
  EXPECT_EQ(descriptor_.state().EnabledImpl("g"), nullptr)
      << "parent untouched";
}

// --- ComputePlan ---

TEST_F(DescriptorTest, PlanEmptyForIdenticalStates) {
  ASSERT_TRUE(descriptor_.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(descriptor_.EnableFunction("f", comp_a_.id).ok());
  EvolutionPlan plan = ComputePlan(descriptor_.state(), descriptor_.state());
  EXPECT_TRUE(plan.incorporate.empty());
  EXPECT_EQ(plan.flips, 0u);
}

TEST_F(DescriptorTest, PlanDetectsIncorporateAndEnable) {
  DfmState from;
  DfmState to;
  ASSERT_TRUE(to.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(to.EnableFunction("f", comp_a_.id).ok());

  EvolutionPlan plan = ComputePlan(from, to);
  ASSERT_EQ(plan.incorporate.size(), 1u);
  EXPECT_EQ(plan.incorporate[0]->id, comp_a_.id);
  EXPECT_EQ(plan.flips, 1u) << "the new component's enabled f";
}

// A plan hands out the target's own records, so the instance that applies
// it shares the target's metadata instead of a copy.
TEST_F(DescriptorTest, PlanIncorporatesTheTargetsRecords) {
  DfmState from;
  ASSERT_TRUE(from.IncorporateComponent(comp_a_).ok());
  DfmState to = from;
  ASSERT_TRUE(to.IncorporateComponent(comp_b_).ok());
  const ImplementationComponent comp_c =
      testing::MakeEchoComponent(registry_, "libC", {"h"});
  ASSERT_TRUE(to.IncorporateComponent(comp_c).ok());

  EvolutionPlan plan = ComputePlan(from, to);
  ASSERT_EQ(plan.incorporate.size(), 2u);
  for (const ComponentRecord& record : plan.incorporate) {
    EXPECT_EQ(record, to.SharedComponent(record->id));
  }
}

TEST_F(DescriptorTest, PlanDetectsRemovalWithoutExplicitDisables) {
  DfmState from;
  ASSERT_TRUE(from.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(from.EnableFunction("f", comp_a_.id).ok());
  DfmState to;

  EvolutionPlan plan = ComputePlan(from, to);
  EXPECT_TRUE(plan.incorporate.empty());
  EXPECT_EQ(plan.flips, 0u)
      << "removal subsumes disables of the removed component";
}

TEST_F(DescriptorTest, PlanDetectsSwitchAsEnablePlusDisable) {
  DfmState from;
  ASSERT_TRUE(from.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(from.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(from.EnableFunction("f", comp_a_.id).ok());

  DfmState to;
  ASSERT_TRUE(to.IncorporateComponent(comp_a_).ok());
  ASSERT_TRUE(to.IncorporateComponent(comp_b_).ok());
  ASSERT_TRUE(to.EnableFunction("f", comp_b_.id).ok());

  EvolutionPlan plan = ComputePlan(from, to);
  EXPECT_TRUE(plan.incorporate.empty());
  EXPECT_EQ(plan.flips, 2u) << "enable f in libB, disable it in libA";
}

}  // namespace
}  // namespace dcdo
