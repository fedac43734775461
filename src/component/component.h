// Implementation components (paper Section 2).
//
// "A DCDO consists of a set of implementation components, each of which
// contains the implementation of a set of dynamic functions." A component
// bundles: an identity (the global name of its ICO), an implementation type,
// the executable image (tracked by size; bodies resolve through the
// NativeCodeRegistry), and descriptors for every function implementation it
// defines — including the author's mandatory/permanent markings, which the
// DFM-descriptor machinery must honour on incorporate (Section 3.2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/serialize.h"
#include "common/status.h"
#include "component/dynamic_function.h"
#include "component/implementation_type.h"

namespace dcdo {

struct ImplementationComponent {
  ObjectId id;        // global name (ObjectId of the owning ICO)
  std::string name;   // human label, e.g. "libsort-v2"
  ImplementationType type;
  std::size_t code_bytes = 0;  // size of the executable image
  std::vector<FunctionImplDescriptor> functions;

  // Descriptor for `function_name`, or nullptr.
  const FunctionImplDescriptor* Find(const std::string& function_name) const;

  // Structural soundness: unique function names, non-empty symbols and
  // callee names, positive image size when functions exist.
  [[nodiscard]] Status Validate() const;

  std::size_t function_count() const { return functions.size(); }
};

// Fluent builder used by examples/tests to assemble components.
class ComponentBuilder {
 public:
  explicit ComponentBuilder(std::string name);

  ComponentBuilder& SetType(const ImplementationType& type);
  ComponentBuilder& SetCodeBytes(std::size_t bytes);

  // Adds a function implementation. `calls` lists DFM-mediated callees for
  // automatic structural (Type A) dependencies.
  ComponentBuilder& AddFunction(
      std::string function_name, std::string signature, std::string symbol,
      Visibility visibility = Visibility::kExported,
      Constraint constraint = Constraint::kFullyDynamic,
      std::vector<std::string> calls = {});

  // Validates and returns the component with a freshly drawn id.
  [[nodiscard]] Result<ImplementationComponent> Build();

 private:
  ImplementationComponent component_;
};

// Wire form of a component's metadata (everything except the image bytes);
// this is what a DCDO reads from an ICO before deciding to fetch the image.
ByteBuffer SerializeComponentMeta(const ImplementationComponent& component);
[[nodiscard]] Result<ImplementationComponent> ParseComponentMeta(const ByteBuffer& buffer);

}  // namespace dcdo
