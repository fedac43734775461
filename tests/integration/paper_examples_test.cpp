// Scenarios lifted verbatim from the paper's prose, reproduced end-to-end.
#include <algorithm>
#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/dcdo.h"
#include "runtime/testbed.h"
#include "testing/fixtures.h"

namespace dcdo {
namespace {

// ===== Section 3.2's sort/compare example =====
//
// "Suppose function Integer[] sort(Integer[]) calls another function
// Integer compare(Integer, Integer), the current implementation of which
// returns the smaller of two integers. In general, it is possible to replace
// compare() with a different implementation that has the same signature, but
// that instead returns the larger of the two numbers. This change would not
// cause sort() to fail due to a violated structural dependency ... but the
// change would alter sort()'s output — the order of the sorted array would
// be reversed. The provider of sort() may want to ensure that this doesn't
// happen; to do so, she can set a behavioral dependency."

ByteBuffer EncodeInts(const std::vector<std::int64_t>& values) {
  Writer writer;
  writer.WriteU64(values.size());
  for (std::int64_t v : values) writer.WriteI64(v);
  return std::move(writer).Take();
}

std::vector<std::int64_t> DecodeInts(const ByteBuffer& buffer) {
  Reader reader(buffer);
  std::vector<std::int64_t> out;
  std::uint64_t count = reader.ReadU64().value_or(0);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(reader.ReadI64().value_or(0));
  }
  return out;
}

class SortCompareExample : public ::testing::Test {
 protected:
  SortCompareExample() {
    auto& registry = testbed_.registry();
    // sort(): insertion sort that delegates every comparison to the
    // dynamic function compare() through the DFM.
    registry.Register(
        "libsort/sort", ImplementationType::Portable(),
        [](CallContext& ctx, const ByteBuffer& args) -> Result<ByteBuffer> {
          std::vector<std::int64_t> values = DecodeInts(args);
          for (std::size_t i = 1; i < values.size(); ++i) {
            for (std::size_t j = i; j > 0; --j) {
              Writer pair;
              pair.WriteI64(values[j - 1]);
              pair.WriteI64(values[j]);
              DCDO_ASSIGN_OR_RETURN(
                  ByteBuffer winner_wire,
                  ctx.CallInternal("compare", std::move(pair).Take()));
              Reader reader(winner_wire);
              std::int64_t winner = reader.ReadI64().value_or(0);
              // compare() returns the element that should come first.
              if (winner == values[j] && values[j] != values[j - 1]) {
                std::swap(values[j], values[j - 1]);
              } else {
                break;
              }
            }
          }
          return EncodeInts(values);
        });
    auto compare_body = [](bool smaller) {
      return [smaller](CallContext&, const ByteBuffer& args)
                 -> Result<ByteBuffer> {
        Reader reader(args);
        DCDO_ASSIGN_OR_RETURN(std::int64_t a, reader.ReadI64());
        DCDO_ASSIGN_OR_RETURN(std::int64_t b, reader.ReadI64());
        Writer writer;
        writer.WriteI64(smaller ? std::min(a, b) : std::max(a, b));
        return std::move(writer).Take();
      };
    };
    registry.Register("libcmp-asc/compare", ImplementationType::Portable(),
                      compare_body(true));
    registry.Register("libcmp-desc/compare", ImplementationType::Portable(),
                      compare_body(false));

    sort_comp_ = *ComponentBuilder("libsort")
                      .AddFunction("sort", "a(a)", "libsort/sort",
                                   Visibility::kExported,
                                   Constraint::kFullyDynamic, {"compare"})
                      .Build();
    asc_comp_ = *ComponentBuilder("libcmp-asc")
                     .AddFunction("compare", "i(ii)", "libcmp-asc/compare",
                                  Visibility::kInternal)
                     .Build();
    desc_comp_ = *ComponentBuilder("libcmp-desc")
                      .AddFunction("compare", "i(ii)", "libcmp-desc/compare",
                                   Visibility::kInternal)
                      .Build();

    object_ = std::make_unique<Dcdo>("sorter", testbed_.host(1),
                                     &testbed_.transport(), &testbed_.agent(),
                                     &testbed_.registry(), &icos_,
                                     VersionId::Root(), &fetcher_);
    for (const auto* comp : {&sort_comp_, &asc_comp_, &desc_comp_}) {
      testbed_.host(1)->CacheComponent(comp->id, comp->code_bytes);
      EXPECT_TRUE(object_->IncorporateCached(*comp).ok());
    }
    EXPECT_TRUE(object_->EnableFunction("compare", asc_comp_.id).ok());
    EXPECT_TRUE(object_->EnableFunction("sort", sort_comp_.id).ok());
  }

  std::vector<std::int64_t> Sort(std::vector<std::int64_t> values) {
    auto result = object_->Call("sort", EncodeInts(values));
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? DecodeInts(*result) : std::vector<std::int64_t>{};
  }

  Testbed testbed_;
  IcoDirectory icos_;
  ComponentFetcher fetcher_{&icos_};  // outlives object_
  ImplementationComponent sort_comp_, asc_comp_, desc_comp_;
  std::unique_ptr<Dcdo> object_;
};

TEST_F(SortCompareExample, SortsAscendingInitially) {
  EXPECT_EQ(Sort({5, 1, 4, 2, 3}),
            (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

// Without a behavioral dependency, the swap is legal and silently reverses
// sort()'s output — exactly the hazard the paper describes.
TEST_F(SortCompareExample, StructuralDependencyAlonePermitsBehaviourChange) {
  ASSERT_TRUE(object_->SwitchImplementation("compare", desc_comp_.id).ok());
  EXPECT_EQ(Sort({5, 1, 4, 2, 3}),
            (std::vector<std::int64_t>{5, 4, 3, 2, 1}))
      << "no structural violation, but the output order reversed";
}

// With a Type B behavioral dependency pinning sort()'s compare() to the
// ascending component, the swap is refused.
TEST_F(SortCompareExample, TypeBDependencyPinsCompareImplementation) {
  ASSERT_TRUE(object_->AddDependency(
      Dependency::TypeB("sort", sort_comp_.id, "compare", asc_comp_.id)).ok());
  Status swap = object_->SwitchImplementation("compare", desc_comp_.id);
  EXPECT_EQ(swap.code(), ErrorCode::kDependencyViolation);
  EXPECT_EQ(Sort({3, 1, 2}), (std::vector<std::int64_t>{1, 2, 3}))
      << "behaviour protected";

  // Retraction: once sort() itself is disabled, the dependency no longer
  // binds and the swap becomes legal.
  ASSERT_TRUE(object_->DisableFunction("sort", sort_comp_.id).ok());
  EXPECT_TRUE(object_->SwitchImplementation("compare", desc_comp_.id).ok());
}

// ===== Section 3.2's security-function example (Type C/D) =====
//
// "A function F1 may require that a security function F2 be enabled to
// restrict access to F1. In this case F1 may not call F2, but still
// requires that it be present."
TEST_F(SortCompareExample, TypeDRequiresPresenceWithoutCalls) {
  auto audit = testing::MakeEchoComponent(testbed_.registry(), "libaudit",
                                          {"audit"});
  testbed_.host(1)->CacheComponent(audit.id, audit.code_bytes);
  ASSERT_TRUE(object_->IncorporateCached(audit).ok());
  ASSERT_TRUE(object_->EnableFunction("audit", audit.id).ok());
  // sort never calls audit, but demands its presence.
  ASSERT_TRUE(object_->AddDependency(
      Dependency::TypeD("sort", "audit")).ok());
  EXPECT_EQ(object_->DisableFunction("audit", audit.id).code(),
            ErrorCode::kDependencyViolation);
  // Disable sort, and audit may go.
  ASSERT_TRUE(object_->DisableFunction("sort", sort_comp_.id).ok());
  EXPECT_TRUE(object_->DisableFunction("audit", audit.id).ok());
}

// ===== Section 3.2's mandatory-retraction scenario =====
//
// "A programmer marks internal function F2 as mandatory because it is
// called by some enabled implementation of F1 ... Then F1 is disabled and
// removed. Now the programmer is left with F2 being marked mandatory, but
// the main reason no longer applies" — dependencies avoid the over-pinning
// that blanket mandatory marks cause.
TEST_F(SortCompareExample, DependenciesRetractWhereMandatoryCannot) {
  // Variant A: mark compare mandatory. After sort is gone, compare is still
  // pinned forever.
  ASSERT_TRUE(object_->MarkMandatory("compare").ok());
  ASSERT_TRUE(object_->DisableFunction("sort", sort_comp_.id).ok());
  ASSERT_TRUE(object_->RemoveComponent(sort_comp_.id).ok());
  EXPECT_EQ(object_->DisableFunction("compare", asc_comp_.id).code(),
            ErrorCode::kMandatoryViolation)
      << "the mark outlived its reason";
}

TEST_F(SortCompareExample, DependencyVariantReleasesCompare) {
  // Variant B: a Type A dependency instead of a mark. Removing sort retracts
  // the constraint and compare becomes fully dynamic again.
  ASSERT_TRUE(object_->AddDependency(
      Dependency::TypeA("sort", sort_comp_.id, "compare")).ok());
  ASSERT_TRUE(object_->DisableFunction("sort", sort_comp_.id).ok());
  ASSERT_TRUE(object_->RemoveComponent(sort_comp_.id).ok());
  EXPECT_TRUE(object_->DisableFunction("compare", asc_comp_.id).ok())
      << "constraint retracted with its dependent";
}

}  // namespace
}  // namespace dcdo
