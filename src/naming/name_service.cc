#include "naming/name_service.h"

namespace dcdo {

Result<std::string> NameService::Normalize(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError("path '" + path + "' is not absolute");
  }
  if (path == "/") return std::string("/");
  if (path.back() == '/') {
    return InvalidArgumentError("path '" + path + "' has a trailing slash");
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/' && path[i - 1] == '/') {
      return InvalidArgumentError("path '" + path + "' has an empty segment");
    }
  }
  return path;
}

bool NameService::DirectoryUnderlies(std::string_view prefix_with_slash) const {
  auto it = names_.lower_bound(prefix_with_slash);
  return it != names_.end() && it->first.starts_with(prefix_with_slash);
}

Status NameService::Bind(const std::string& raw_path, const ObjectId& id) {
  DCDO_ASSIGN_OR_RETURN(std::string path, Normalize(raw_path));
  if (path == "/") {
    return InvalidArgumentError("the root directory cannot be bound");
  }
  if (id.nil()) {
    return InvalidArgumentError("cannot bind '" + path + "' to the nil id");
  }
  if (names_.contains(path)) {
    return AlreadyExistsError("'" + path + "' is already bound");
  }
  if (DirectoryUnderlies(path + "/")) {
    return AlreadyExistsError("'" + path + "' is a directory");
  }
  // No ancestor of the new name may itself be a bound name.
  std::string_view view(path);
  for (std::size_t slash = view.rfind('/'); slash > 0;
       slash = view.rfind('/', slash - 1)) {
    if (names_.contains(view.substr(0, slash))) {
      return AlreadyExistsError("'" + std::string(view.substr(0, slash)) +
                                "' is a name, not a directory");
    }
  }
  names_.emplace(std::move(path), id);
  return Status::Ok();
}

Status NameService::Unbind(const std::string& raw_path) {
  DCDO_ASSIGN_OR_RETURN(std::string path, Normalize(raw_path));
  if (names_.erase(path) == 0) {
    return NotFoundError("'" + path + "' is not bound");
  }
  return Status::Ok();
}

Result<ObjectId> NameService::Lookup(const std::string& raw_path) const {
  // Only normalized paths are ever bound, so a hit needs no Normalize walk;
  // a miss pays it to produce the precise error.
  auto it = names_.find(raw_path);
  if (it != names_.end()) return it->second;
  DCDO_ASSIGN_OR_RETURN(std::string path, Normalize(raw_path));
  return NotFoundError("'" + path + "' is not bound");
}

bool NameService::IsName(const std::string& raw_path) const {
  return names_.contains(raw_path);
}

bool NameService::IsDirectory(const std::string& raw_path) const {
  auto normalized = Normalize(raw_path);
  if (!normalized.ok()) return false;
  if (*normalized == "/") return true;
  return DirectoryUnderlies(*normalized + "/");
}

Result<std::vector<std::string>> NameService::List(
    const std::string& raw_directory) const {
  DCDO_ASSIGN_OR_RETURN(std::string directory, Normalize(raw_directory));
  if (directory != "/" && !IsDirectory(directory)) {
    if (IsName(directory)) {
      return FailedPreconditionError("'" + directory + "' is a name");
    }
    return NotFoundError("'" + directory + "' does not exist");
  }
  std::string prefix = directory == "/" ? "/" : directory + "/";
  std::vector<std::string> out;
  for (auto it = names_.lower_bound(prefix);
       it != names_.end() && it->first.starts_with(prefix); ++it) {
    std::string_view rest(it->first);
    rest.remove_prefix(prefix.size());
    std::size_t slash = rest.find('/');
    std::string child = slash == std::string_view::npos
                            ? std::string(rest)
                            : std::string(rest.substr(0, slash)) + "/";
    if (out.empty() || out.back() != child) out.push_back(std::move(child));
  }
  return out;
}

}  // namespace dcdo
