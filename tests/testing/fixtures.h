// Shared helpers for building components and registering bodies in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "component/component.h"
#include "component/native_code_registry.h"

namespace dcdo::testing {

// Registers a portable body under `symbol` that returns "<tag>:<args>".
inline void RegisterEcho(NativeCodeRegistry& registry,
                         const std::string& symbol, const std::string& tag) {
  registry.Register(symbol, ImplementationType::Portable(),
                    [tag](CallContext&, const ByteBuffer& args) {
                      return Result<ByteBuffer>(ByteBuffer::FromString(
                          tag + ":" + args.ToString()));
                    });
}

// Registers a body that forwards to another dynamic function through the
// DFM (used to exercise intra-object calls and dependency machinery).
inline void RegisterForwarder(NativeCodeRegistry& registry,
                              const std::string& symbol,
                              const std::string& callee) {
  registry.Register(symbol, ImplementationType::Portable(),
                    [callee](CallContext& ctx, const ByteBuffer& args) {
                      return ctx.CallInternal(callee, args);
                    });
}

// Builds a component named `name` exporting `functions`, with echo bodies
// registered as "<name>/<function>" and tags "<name>.<function>".
inline ImplementationComponent MakeEchoComponent(
    NativeCodeRegistry& registry, const std::string& name,
    const std::vector<std::string>& functions,
    std::size_t code_bytes = 64 * 1024) {
  ComponentBuilder builder(name);
  builder.SetCodeBytes(code_bytes);
  for (const std::string& fn : functions) {
    std::string symbol = name + "/" + fn;
    RegisterEcho(registry, symbol, name + "." + fn);
    builder.AddFunction(fn, "b(b)", symbol);
  }
  auto built = builder.Build();
  // Tests construct well-formed components; surface mistakes loudly.
  if (!built.ok()) {
    throw std::runtime_error("MakeEchoComponent: " +
                             built.status().ToString());
  }
  return *built;
}

// `count` echo components "c1".."c<count>", in an order shuffled by `seed`.
// Component ci implements "ci_a", "ci_b" and "shared<i % 5>", so its rows
// interleave with other components' rows by name ("c1_a" < "c10_a" <
// "c2_a") and five functions have many implementations.
inline std::vector<ImplementationComponent> MakeInterleavedComponents(
    NativeCodeRegistry& registry, int count, std::uint32_t seed) {
  std::vector<ImplementationComponent> components;
  for (int i = 1; i <= count; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    components.push_back(MakeEchoComponent(
        registry, name,
        {name + "_a", name + "_b", "shared" + std::to_string(i % 5)}));
  }
  std::mt19937 rng(seed);
  std::shuffle(components.begin(), components.end(), rng);
  return components;
}

}  // namespace dcdo::testing
