#include "naming/name_service.h"

#include <gtest/gtest.h>

namespace dcdo {
namespace {

class NameServiceTest : public ::testing::Test {
 protected:
  ObjectId NewId() { return ObjectId::Next(domains::kComponent); }
  NameService names_;
};

TEST_F(NameServiceTest, NormalizeRules) {
  EXPECT_TRUE(NameService::Normalize("/a/b").ok());
  EXPECT_TRUE(NameService::Normalize("/").ok());
  EXPECT_FALSE(NameService::Normalize("").ok());
  EXPECT_FALSE(NameService::Normalize("a/b").ok());
  EXPECT_FALSE(NameService::Normalize("/a/").ok());
  EXPECT_FALSE(NameService::Normalize("/a//b").ok());
}

TEST_F(NameServiceTest, BindAndLookup) {
  ObjectId id = NewId();
  ASSERT_TRUE(names_.Bind("/components/libsort/2", id).ok());
  auto found = names_.Lookup("/components/libsort/2");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, id);
  EXPECT_TRUE(names_.IsName("/components/libsort/2"));
  EXPECT_TRUE(names_.IsDirectory("/components"));
  EXPECT_TRUE(names_.IsDirectory("/components/libsort"));
  EXPECT_FALSE(names_.IsName("/components"));
}

TEST_F(NameServiceTest, DoubleBindRejected) {
  ASSERT_TRUE(names_.Bind("/x", NewId()).ok());
  EXPECT_EQ(names_.Bind("/x", NewId()).code(), ErrorCode::kAlreadyExists);
}

TEST_F(NameServiceTest, NameDirectoryCollisionRejectedBothWays) {
  ASSERT_TRUE(names_.Bind("/a/b/c", NewId()).ok());
  // "/a/b" is now a directory: cannot be bound as a name.
  EXPECT_EQ(names_.Bind("/a/b", NewId()).code(), ErrorCode::kAlreadyExists);
  // And a bound name cannot become a directory.
  ASSERT_TRUE(names_.Bind("/leaf", NewId()).ok());
  EXPECT_EQ(names_.Bind("/leaf/child", NewId()).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(NameServiceTest, RootCannotBeBound) {
  EXPECT_FALSE(names_.Bind("/", NewId()).ok());
  EXPECT_FALSE(names_.Bind("/nil-target", ObjectId::Nil()).ok());
}

TEST_F(NameServiceTest, UnbindRemovesAndDirectoriesEvaporate) {
  ASSERT_TRUE(names_.Bind("/dir/only", NewId()).ok());
  EXPECT_TRUE(names_.IsDirectory("/dir"));
  ASSERT_TRUE(names_.Unbind("/dir/only").ok());
  EXPECT_FALSE(names_.IsDirectory("/dir"));
  EXPECT_EQ(names_.Unbind("/dir/only").code(), ErrorCode::kNotFound);
  EXPECT_EQ(names_.size(), 0u);
}

TEST_F(NameServiceTest, ListDistinguishesNamesAndDirectories) {
  ASSERT_TRUE(names_.Bind("/c/libsort/1", NewId()).ok());
  ASSERT_TRUE(names_.Bind("/c/libsort/2", NewId()).ok());
  ASSERT_TRUE(names_.Bind("/c/libcmp", NewId()).ok());
  ASSERT_TRUE(names_.Bind("/hosts/n1", NewId()).ok());

  auto root = names_.List("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, (std::vector<std::string>{"c/", "hosts/"}));

  auto c = names_.List("/c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, (std::vector<std::string>{"libcmp", "libsort/"}));

  auto libsort = names_.List("/c/libsort");
  ASSERT_TRUE(libsort.ok());
  EXPECT_EQ(*libsort, (std::vector<std::string>{"1", "2"}));
}

TEST_F(NameServiceTest, ListErrors) {
  ASSERT_TRUE(names_.Bind("/a/b", NewId()).ok());
  EXPECT_EQ(names_.List("/nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(names_.List("/a/b").status().code(),
            ErrorCode::kFailedPrecondition)
      << "listing a name, not a directory";
}

TEST_F(NameServiceTest, EmptyRootListsEmpty) {
  auto root = names_.List("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->empty());
}

// Similar sibling prefixes must not bleed into each other's listings.
TEST_F(NameServiceTest, PrefixSiblingsDoNotCollide) {
  ASSERT_TRUE(names_.Bind("/ab/x", NewId()).ok());
  ASSERT_TRUE(names_.Bind("/abc/y", NewId()).ok());
  auto ab = names_.List("/ab");
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(*ab, (std::vector<std::string>{"x"}));
}

// Services are independent namespaces: a path bound in one does not
// resolve, list or unbind in another.
TEST_F(NameServiceTest, ServicesAreIndependentNamespaces) {
  NameService other;
  ASSERT_TRUE(other.Bind("/only/in/other", NewId()).ok());
  EXPECT_EQ(names_.Lookup("/only/in/other").status().code(),
            ErrorCode::kNotFound);
  EXPECT_FALSE(names_.IsName("/only/in/other"));
  EXPECT_FALSE(names_.IsDirectory("/only"));
  EXPECT_EQ(names_.List("/only").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(names_.Unbind("/only/in/other").code(), ErrorCode::kNotFound);
  EXPECT_TRUE(other.IsName("/only/in/other"));
}

}  // namespace
}  // namespace dcdo
