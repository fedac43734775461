// NativeCodeRegistry: the reproduction's substitute for OS dynamic linking.
//
// In the Legion implementation a DCDO incorporates a component by "using the
// appropriate operating-system-specific mechanism for mapping it into the
// DCDO's address space" (dlopen + dlsym). Driving real dlopen from a test
// harness is awkward and unportable, so we substitute manual reflection: all
// function bodies compiled into this process register here by symbol, and
// "mapping a component" means resolving its symbols against this registry.
// The *cost* of a real map is charged separately in simulated time
// (CostModel::component_map_cached); this class is purely the lookup.
//
// The registry is also the enforcement point for implementation types: a
// symbol is registered under a given ImplementationType, and resolution asks
// for compatibility with the executing host's architecture — which is how a
// heterogeneous testbed refuses to map SPARC code into an x86 process.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "component/dynamic_function.h"
#include "component/implementation_type.h"

namespace dcdo {

class NativeCodeRegistry {
 public:
  // Registers `body` under `symbol` with the given implementation type.
  // Re-registering the same symbol with the same type replaces the body
  // (a rebuilt component); same symbol with a *different* type coexists
  // (native builds for several architectures).
  void Register(const std::string& symbol, const ImplementationType& type,
                DynamicFn body);

  // Resolves `symbol` for a host of architecture `arch`. Prefers a native
  // build for `arch`; falls back to a portable build if one exists.
  [[nodiscard]] Result<DynamicFn> Resolve(const std::string& symbol,
                            sim::Architecture arch) const;

  bool Has(const std::string& symbol) const {
    return bodies_.contains(symbol);
  }
  std::size_t size() const { return bodies_.size(); }

 private:
  struct Entry {
    ImplementationType type;
    DynamicFn body;
  };
  // A symbol's builds: nearly always one, held in the map's own node; the
  // rest (native builds for more architectures) in `more`, scanned
  // linearly.
  struct Builds {
    Entry first;
    std::vector<Entry> more;
  };
  std::unordered_map<std::string, Builds> bodies_;
};

}  // namespace dcdo
