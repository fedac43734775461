// NameService: hierarchical human-readable naming (Legion's context space).
//
// Legion layers a directory-like "context space" of string paths over the
// flat LOID namespace; the paper leans on exactly this when it argues ICOs
// let components "be named using whatever scheme exists for naming objects
// in the system". This is that scheme: absolute slash-separated paths bound
// to ObjectIds, with listing by directory. Managers publish components under
// paths like /components/libsort/2 so tools and humans can find them.
//
// One ordered map from path to object serves every operation: Bind, Unbind,
// Lookup and IsName probe it by key, and IsDirectory and List walk the
// contiguous run of keys under a directory's "<dir>/" prefix.
//
// Rules (kept deliberately simple):
//   * paths are absolute ("/a/b/c"), segments are non-empty and contain no
//     slashes; "/" itself is the root directory and cannot be bound;
//   * a path is either a *name* (bound to an object) or a *directory*
//     (a strict prefix of some bound name) — never both;
//   * Unbind removes a name; empty directories vanish with their last name.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"

namespace dcdo {

class NameService {
 public:
  // Binds `path` to `id`, failing if the path is malformed, already bound,
  // or collides with an existing directory/name. Rebinding requires an
  // explicit Unbind first (accidental shadowing is an error, not a feature).
  [[nodiscard]] Status Bind(const std::string& path, const ObjectId& id);

  [[nodiscard]] Status Unbind(const std::string& path);

  [[nodiscard]] Result<ObjectId> Lookup(const std::string& path) const;

  bool IsName(const std::string& path) const;
  bool IsDirectory(const std::string& path) const;

  // Immediate children of `directory` ("/": the root). Names are returned
  // as bare segments; sub-directories carry a trailing '/'.
  [[nodiscard]] Result<std::vector<std::string>> List(const std::string& directory) const;

  std::size_t size() const { return names_.size(); }

  // Validates and canonicalizes a path (collapses nothing — rejects
  // malformed input instead). Exposed for tests.
  [[nodiscard]] static Result<std::string> Normalize(const std::string& path);

 private:
  bool DirectoryUnderlies(std::string_view prefix_with_slash) const;

  // Normalized path -> object. Transparent ordering, so string_view probes
  // (ancestors, directory prefixes) never build a std::string.
  std::map<std::string, ObjectId, std::less<>> names_;
};

}  // namespace dcdo
