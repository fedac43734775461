// FunctionId: dense interned handles for dynamic-function names.
//
// The paper's DFM is "a centralized table through which all calls to dynamic
// functions must go" — which makes the cost of *finding the row* the cost of
// every call. String-keyed lookups pay hashing (or tree walks) and, worse,
// string copies on every acquire. Interning fixes the unit of work: a name is
// resolved to a dense FunctionId once (at incorporate time, at proxy-refresh
// time, at method-table registration), and the call path finds its slot in
// each mapper's own id index with it (ids are process-global, but no mapper
// sizes anything by their range).
//
// The table is process-global and append-only: ids are never reused, and the
// backing strings have stable addresses for the life of the process, so a
// `const std::string*` taken from NameOf() may be held across configuration
// changes (CallGuard does exactly this instead of copying the name per call).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dcdo {

// A dense handle for an interned function name. Value-comparable, hashable,
// and cheap to copy; kInvalid means "never interned" (and therefore: no DFM
// anywhere has ever seen the name).
struct FunctionId {
  static constexpr std::uint32_t kInvalidValue = 0xFFFFFFFFu;

  std::uint32_t value = kInvalidValue;

  static constexpr FunctionId Invalid() { return FunctionId{}; }
  bool valid() const { return value != kInvalidValue; }

  friend bool operator==(FunctionId, FunctionId) = default;
};

// Inline FNV-1a for function names. Names are short (tens of bytes), where
// the standard library's hash pays a non-inlined per-byte loop; this keeps
// the whole probe visible to the optimizer. Used by every name-keyed index
// on the call path.
struct FunctionNameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

// The process-global intern table. Read-mostly: Find() and NameOf() take a
// shared lock; Intern() upgrades to exclusive only when the name is new.
class FunctionNameTable {
 public:
  static FunctionNameTable& Global();

  // Returns the id for `name`, creating one if this is the first sighting.
  FunctionId Intern(std::string_view name);

  // Returns the id for `name`, or FunctionId::Invalid() if never interned.
  // Never allocates — safe on rejection paths that must stay cheap.
  FunctionId Find(std::string_view name) const;

  // The interned name. The reference is stable for the process lifetime.
  // `id` must be valid and in range.
  const std::string& NameOf(FunctionId id) const;

  std::size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::deque<std::string> names_;  // deque: stable addresses across growth
  // Views point into names_, so the index never owns string storage twice.
  std::unordered_map<std::string_view, std::uint32_t, FunctionNameHash> index_;
};

}  // namespace dcdo

template <>
struct std::hash<dcdo::FunctionId> {
  std::size_t operator()(dcdo::FunctionId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
