#include "component/native_code_registry.h"

namespace dcdo {

void NativeCodeRegistry::Register(const std::string& symbol,
                                  const ImplementationType& type,
                                  DynamicFn body) {
  auto [it, inserted] = bodies_.try_emplace(symbol);
  Builds& builds = it->second;
  if (inserted || builds.first.type == type) {
    builds.first = Entry{type, std::move(body)};
    return;
  }
  for (Entry& entry : builds.more) {
    if (entry.type == type) {
      entry.body = std::move(body);
      return;
    }
  }
  builds.more.push_back(Entry{type, std::move(body)});
}

Result<DynamicFn> NativeCodeRegistry::Resolve(const std::string& symbol,
                                              sim::Architecture arch) const {
  auto it = bodies_.find(symbol);
  if (it == bodies_.end()) {
    return NotFoundError("unresolved symbol '" + symbol + "'");
  }
  const DynamicFn* portable = nullptr;
  auto native = [&](const Entry& entry) {
    if (entry.type.format == CodeFormat::kPortableBytecode) {
      portable = &entry.body;
      return false;
    }
    return entry.type.CompatibleWith(arch);
  };
  const Builds& builds = it->second;
  if (native(builds.first)) return builds.first.body;
  for (const Entry& entry : builds.more) {
    if (native(entry)) return entry.body;
  }
  if (portable != nullptr) return *portable;
  return ArchMismatchError("symbol '" + symbol + "' has no build for " +
                           std::string(sim::ArchitectureName(arch)));
}

}  // namespace dcdo
