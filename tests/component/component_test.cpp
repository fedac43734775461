#include "component/component.h"

#include <gtest/gtest.h>

namespace dcdo {
namespace {

TEST(ComponentBuilderTest, BuildsValidComponent) {
  auto component = ComponentBuilder("libmath")
                       .SetCodeBytes(128 * 1024)
                       .AddFunction("add", "i(ii)", "libmath/add")
                       .AddFunction("mul", "i(ii)", "libmath/mul",
                                    Visibility::kInternal)
                       .Build();
  ASSERT_TRUE(component.ok());
  EXPECT_EQ(component->name, "libmath");
  EXPECT_EQ(component->function_count(), 2u);
  EXPECT_EQ(component->code_bytes, 128u * 1024);
  EXPECT_FALSE(component->id.nil());
  EXPECT_EQ(component->id.domain(), domains::kComponent);
}

TEST(ComponentBuilderTest, FindLocatesFunctions) {
  auto component = ComponentBuilder("lib")
                       .AddFunction("f", "v()", "lib/f")
                       .Build();
  ASSERT_TRUE(component.ok());
  ASSERT_NE(component->Find("f"), nullptr);
  EXPECT_EQ(component->Find("f")->symbol, "lib/f");
  EXPECT_EQ(component->Find("g"), nullptr);
}

TEST(ComponentBuilderTest, ConstraintAndCallsRecorded) {
  auto component =
      ComponentBuilder("lib")
          .AddFunction("sort", "a(a)", "lib/sort", Visibility::kExported,
                       Constraint::kFullyDynamic, {"compare"})
          .AddFunction("compare", "i(ii)", "lib/compare",
                       Visibility::kInternal, Constraint::kMandatory)
          .Build();
  ASSERT_TRUE(component.ok());
  EXPECT_EQ(component->Find("sort")->calls,
            (std::vector<std::string>{"compare"}));
  EXPECT_EQ(component->Find("compare")->constraint, Constraint::kMandatory);
}

TEST(ComponentValidateTest, RejectsDuplicateFunction) {
  auto component = ComponentBuilder("lib")
                       .AddFunction("f", "v()", "lib/f1")
                       .AddFunction("f", "v()", "lib/f2")
                       .Build();
  ASSERT_FALSE(component.ok());
  EXPECT_EQ(component.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ComponentValidateTest, RejectsEmptySymbol) {
  auto component = ComponentBuilder("lib").AddFunction("f", "v()", "").Build();
  EXPECT_FALSE(component.ok());
}

// A `calls` hint becomes a Type A dependency on incorporate; an empty callee
// is a malformed dependency, so the component is rejected up front (its
// metadata also arrives over the wire through ParseComponentMeta).
TEST(ComponentValidateTest, RejectsEmptyCallee) {
  auto component = ComponentBuilder("lib")
                       .AddFunction("f", "v()", "lib/f", Visibility::kExported,
                                    Constraint::kFullyDynamic, {"g", ""})
                       .Build();
  ASSERT_FALSE(component.ok());
  EXPECT_EQ(component.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ComponentValidateTest, RejectsFunctionsWithoutImage) {
  auto component = ComponentBuilder("lib")
                       .SetCodeBytes(0)
                       .AddFunction("f", "v()", "lib/f")
                       .Build();
  EXPECT_FALSE(component.ok());
}

TEST(ComponentValidateTest, EmptyNameRejected) {
  auto component = ComponentBuilder("").Build();
  EXPECT_FALSE(component.ok());
}

TEST(ComponentMetaWireTest, RoundTripPreservesEverything) {
  auto component =
      ComponentBuilder("libnet")
          .SetType(ImplementationType::Native(sim::Architecture::kAlphaOsf))
          .SetCodeBytes(550'000)
          .AddFunction("send", "i(b)", "libnet/send", Visibility::kExported,
                       Constraint::kPermanent, {"checksum"})
          .AddFunction("checksum", "i(b)", "libnet/checksum",
                       Visibility::kInternal, Constraint::kMandatory)
          .Build();
  ASSERT_TRUE(component.ok());

  ByteBuffer wire = SerializeComponentMeta(*component);
  auto parsed = ParseComponentMeta(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, component->id);
  EXPECT_EQ(parsed->name, "libnet");
  EXPECT_EQ(parsed->type, component->type);
  EXPECT_EQ(parsed->code_bytes, 550'000u);
  ASSERT_EQ(parsed->function_count(), 2u);
  EXPECT_EQ(parsed->Find("send")->constraint, Constraint::kPermanent);
  EXPECT_EQ(parsed->Find("send")->calls,
            (std::vector<std::string>{"checksum"}));
  EXPECT_EQ(parsed->Find("checksum")->visibility, Visibility::kInternal);
}

TEST(ComponentMetaWireTest, GarbageFailsToParse) {
  auto parsed = ParseComponentMeta(ByteBuffer::FromString("not a component"));
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace dcdo
