#include "dfm/descriptor_wire.h"

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

class DescriptorWireTest : public ::testing::Test {
 protected:
  DescriptorWireTest() {
    comp_a_ = testing::MakeEchoComponent(registry_, "libA", {"f", "g"});
    comp_b_ = testing::MakeEchoComponent(registry_, "libB", {"f", "h"});
  }

  // A descriptor exercising every serialized feature.
  DfmDescriptor MakeRich() {
    DfmDescriptor descriptor(VersionId{3, 2, 1});
    EXPECT_TRUE(descriptor.IncorporateComponent(comp_a_, false).ok());
    EXPECT_TRUE(descriptor.IncorporateComponent(comp_b_, false).ok());
    EXPECT_TRUE(descriptor.EnableFunction("f", comp_a_.id).ok());
    EXPECT_TRUE(descriptor.EnableFunction("g", comp_a_.id).ok());
    EXPECT_TRUE(descriptor.EnableFunction("h", comp_b_.id).ok());
    EXPECT_TRUE(descriptor.SetVisibility("g", comp_a_.id,
                                         Visibility::kInternal).ok());
    EXPECT_TRUE(descriptor.MarkMandatory("f").ok());
    EXPECT_TRUE(descriptor.MarkPermanent("h", comp_b_.id).ok());
    EXPECT_TRUE(descriptor.AddDependency(
        Dependency::TypeA("f", comp_a_.id, "g")).ok());
    EXPECT_TRUE(descriptor.AddDependency(
        Dependency::TypeB("h", comp_b_.id, "g", comp_a_.id)).ok());
    return descriptor;
  }

  NativeCodeRegistry registry_;
  ImplementationComponent comp_a_;
  ImplementationComponent comp_b_;
};

TEST_F(DescriptorWireTest, RoundTripPreservesEverything) {
  DfmDescriptor original = MakeRich();
  ByteBuffer wire = SerializeDescriptor(original);
  auto parsed = ParseDescriptor(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->version(), original.version());
  EXPECT_FALSE(parsed->instantiable());
  const DfmState& state = parsed->state();
  EXPECT_EQ(state.component_count(), 2u);
  EXPECT_EQ(state.entry_count(), 4u);
  ASSERT_NE(state.EnabledImpl("f"), nullptr);
  EXPECT_EQ(state.EnabledImpl("f")->component, comp_a_.id);
  EXPECT_EQ(state.FindEntry("g", comp_a_.id)->visibility,
            Visibility::kInternal);
  EXPECT_TRUE(state.IsMandatory("f"));
  EXPECT_TRUE(state.FindEntry("h", comp_b_.id)->permanent);
  EXPECT_EQ(state.dependencies().size(), 2u);

  // An evolution plan between original and parsed states is empty: they are
  // the same configuration.
  EvolutionPlan plan = ComputePlan(original.state(), state);
  EXPECT_TRUE(plan.incorporate.empty());
  EXPECT_EQ(plan.flips, 0u);
}

TEST_F(DescriptorWireTest, InstantiableFlagSurvives) {
  DfmDescriptor original = MakeRich();
  ASSERT_TRUE(original.MarkInstantiable().ok());
  auto parsed = ParseDescriptor(SerializeDescriptor(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->instantiable());
  // And the parsed copy is frozen like the original.
  EXPECT_EQ(parsed->EnableFunction("f", comp_b_.id).code(),
            ErrorCode::kVersionFrozen);
}

TEST_F(DescriptorWireTest, EmptyDescriptorRoundTrips) {
  DfmDescriptor empty(VersionId::Root());
  auto parsed = ParseDescriptor(SerializeDescriptor(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->state().component_count(), 0u);
  EXPECT_EQ(parsed->state().entry_count(), 0u);
}

TEST_F(DescriptorWireTest, GarbageRejected) {
  EXPECT_FALSE(ParseDescriptor(ByteBuffer::FromString("garbage")).ok());
  EXPECT_FALSE(ParseDescriptor(ByteBuffer{}).ok());
}

TEST_F(DescriptorWireTest, TruncationRejectedEverywhere) {
  DfmDescriptor original = MakeRich();
  ByteBuffer wire = SerializeDescriptor(original);
  // Chop the wire at a sweep of prefixes: every truncation must fail
  // cleanly, never crash or mis-parse.
  for (std::size_t cut = 0; cut + 1 < wire.size();
       cut += std::max<std::size_t>(1, wire.size() / 40)) {
    std::vector<std::byte> prefix(wire.data(), wire.data() + cut);
    auto parsed = ParseDescriptor(ByteBuffer(std::move(prefix)));
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " parsed";
  }
}

TEST_F(DescriptorWireTest, HugeRowCountRejectedBeforeReserving) {
  // A descriptor that claims 2^61 rows is refused as an overrun before any
  // row is read or any storage is reserved for it.
  Writer writer;
  writer.WriteVersionId(VersionId::Root());
  writer.WriteBool(false);
  writer.WriteU64(0);                       // components
  writer.WriteU64(std::uint64_t{1} << 61);  // rows
  auto parsed = ParseDescriptor(std::move(writer).Take());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kOutOfRange);
}

TEST_F(DescriptorWireTest, InconsistentWireRejectedByValidation) {
  // Hand-craft a wire image whose instantiable flag is set but whose
  // mandatory function has no enabled implementation: reconstruction runs
  // the real MarkInstantiable validation, which must refuse.
  DfmDescriptor descriptor(VersionId::Root());
  ASSERT_TRUE(descriptor.IncorporateComponent(comp_a_, false).ok());
  ASSERT_TRUE(descriptor.EnableFunction("f", comp_a_.id).ok());
  ASSERT_TRUE(descriptor.MarkMandatory("f").ok());
  ByteBuffer wire = SerializeDescriptor(descriptor);

  // Flip the enabled bit of the single enabled row by re-serializing a
  // tampered clone: disable is illegal through the API (mandatory), so
  // build the tampered image manually from a fresh descriptor without the
  // enable, then splice the instantiable flag on.
  DfmDescriptor tampered(VersionId::Root());
  ASSERT_TRUE(tampered.IncorporateComponent(comp_a_, false).ok());
  ASSERT_TRUE(tampered.MarkMandatory("f").ok());
  ByteBuffer bad_wire = SerializeDescriptor(tampered);
  // Set the instantiable flag (byte right after the version id:
  // u64 count + 1×u32 part + bool).
  std::vector<std::byte> bytes(bad_wire.data(),
                               bad_wire.data() + bad_wire.size());
  bytes[sizeof(std::uint64_t) + sizeof(std::uint32_t)] = std::byte{1};
  auto parsed = ParseDescriptor(ByteBuffer(std::move(bytes)));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kMandatoryViolation);
}

}  // namespace
}  // namespace dcdo
