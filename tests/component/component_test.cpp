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

TEST(ComponentValidateTest, RejectsDuplicateAtTheEndOfALargeComponent) {
  ComponentBuilder builder("big");
  for (int i = 0; i < 999; ++i) {
    const std::string name = "fn" + std::to_string(i);
    builder.AddFunction(name, "v()", "big/" + name);
  }
  builder.AddFunction("fn512", "v()", "big/again");
  auto component = builder.Build();
  ASSERT_FALSE(component.ok());
  EXPECT_EQ(component.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(component.status().message(),
            "component 'big' implements function 'fn512' twice");
}

// Functions are checked front to back, each for an empty name, an empty
// symbol, an empty callee and then a repeated name, so the first faulty
// function decides the error.
TEST(ComponentValidateTest, FirstFaultyFunctionDecidesTheError) {
  auto repeat_first = ComponentBuilder("lib")
                          .AddFunction("f", "v()", "lib/f1")
                          .AddFunction("f", "v()", "lib/f2")
                          .AddFunction("g", "v()", "")
                          .Build();
  ASSERT_FALSE(repeat_first.ok());
  EXPECT_EQ(repeat_first.status().message(),
            "component 'lib' implements function 'f' twice");
  auto symbol_first = ComponentBuilder("lib")
                          .AddFunction("f", "v()", "lib/f1")
                          .AddFunction("g", "v()", "")
                          .AddFunction("f", "v()", "lib/f2")
                          .Build();
  ASSERT_FALSE(symbol_first.ok());
  EXPECT_EQ(symbol_first.status().message(),
            "function 'g' in component 'lib' has no symbol");
  auto repeat_with_empty_symbol = ComponentBuilder("lib")
                                      .AddFunction("f", "v()", "lib/f1")
                                      .AddFunction("f", "v()", "")
                                      .Build();
  ASSERT_FALSE(repeat_with_empty_symbol.ok());
  EXPECT_EQ(repeat_with_empty_symbol.status().message(),
            "function 'f' in component 'lib' has no symbol");
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

// A one-function component's metadata wire, laid out as
// SerializeComponentMeta writes it, with every enum field settable.
struct MetaEnums {
  std::uint32_t architecture = 0;
  std::uint32_t format = 0;
  std::uint32_t language = 0;
  std::uint32_t visibility = 0;
  std::uint32_t constraint = 0;
};

Status ParseWithEnums(const MetaEnums& enums) {
  Writer writer;
  writer.WriteObjectId(ObjectId(1, 2));
  writer.WriteString("libwire");
  writer.WriteU32(enums.architecture);
  writer.WriteU32(enums.format);
  writer.WriteU32(enums.language);
  writer.WriteU64(4096);  // code bytes
  writer.WriteU64(1);     // functions
  writer.WriteString("f");
  writer.WriteString("i(i)");
  writer.WriteU32(enums.visibility);
  writer.WriteU32(enums.constraint);
  writer.WriteString("libwire/f");
  writer.WriteU64(0);  // calls
  return ParseComponentMeta(std::move(writer).Take()).status();
}

TEST(ComponentMetaWireTest, RejectsOutOfRangeVisibility) {
  EXPECT_TRUE(ParseWithEnums({.visibility = 1}).ok());
  EXPECT_EQ(ParseWithEnums({.visibility = 9}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseWithEnums({.visibility = 256}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ComponentMetaWireTest, RejectsOutOfRangeConstraint) {
  EXPECT_TRUE(ParseWithEnums({.constraint = 2}).ok());
  EXPECT_EQ(ParseWithEnums({.constraint = 7}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseWithEnums({.constraint = 256}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ComponentMetaWireTest, RejectsOutOfRangeArchitecture) {
  EXPECT_TRUE(ParseWithEnums({.architecture = 3}).ok());
  EXPECT_EQ(ParseWithEnums({.architecture = 4}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseWithEnums({.architecture = 256}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ComponentMetaWireTest, RejectsOutOfRangeCodeFormat) {
  EXPECT_TRUE(ParseWithEnums({.format = 2}).ok());
  EXPECT_EQ(ParseWithEnums({.format = 3}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseWithEnums({.format = 256}).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ComponentMetaWireTest, RejectsOutOfRangeLanguage) {
  EXPECT_TRUE(ParseWithEnums({.language = 4}).ok());
  EXPECT_EQ(ParseWithEnums({.language = 5}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseWithEnums({.language = 256}).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace dcdo
