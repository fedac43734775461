// Implementation components (paper Section 2).
//
// "A DCDO consists of a set of implementation components, each of which
// contains the implementation of a set of dynamic functions." A component
// bundles: an identity (the global name of its ICO), an implementation type,
// the executable image (tracked by size; bodies resolve through the
// NativeCodeRegistry), and descriptors for every function implementation it
// defines — including the author's mandatory/permanent markings, which the
// DFM-descriptor machinery must honour on incorporate (Section 3.2).
//
// A component's function list is built once and then shared: every copy of
// the component — the builder's result, the ICO's metadata, each version's
// record, a caller's own copy — holds the same immutable list, so copying a
// component copies no descriptor and no string.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/serialize.h"
#include "common/status.h"
#include "component/dynamic_function.h"
#include "component/implementation_type.h"

namespace dcdo {

// One component's function descriptors, read-only and co-owned by every
// copy. Appending (the builder, the wire parser, hand-assembled tests) first
// copies the list when another copy shares it, so no copy ever sees another
// change; a list is assembled by one thread before it is shared.
class FunctionList {
 public:
  using value_type = FunctionImplDescriptor;
  using const_iterator = const FunctionImplDescriptor*;

  const FunctionImplDescriptor* data() const {
    return list_ == nullptr ? nullptr : list_->data();
  }
  std::size_t size() const { return list_ == nullptr ? 0 : list_->size(); }
  bool empty() const { return size() == 0; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }
  const FunctionImplDescriptor& operator[](std::size_t i) const {
    return (*list_)[i];
  }

  void push_back(FunctionImplDescriptor fn);

 private:
  std::shared_ptr<std::vector<FunctionImplDescriptor>> list_;
};

struct ImplementationComponent {
  ObjectId id;        // global name (ObjectId of the owning ICO)
  std::string name;   // human label, e.g. "libsort-v2"
  ImplementationType type;
  std::size_t code_bytes = 0;  // size of the executable image
  FunctionList functions;      // shared by every copy of the component

  // Descriptor for `function_name`, or nullptr.
  const FunctionImplDescriptor* Find(const std::string& function_name) const;

  // Structural soundness: unique function names, non-empty symbols and
  // callee names, positive image size when functions exist.
  [[nodiscard]] Status Validate() const;

  std::size_t function_count() const { return functions.size(); }
};

// One component's metadata, immutable and co-owned. A version's descriptor
// holds one record per component, and everything that acquires the
// component for an instance of that version — creation, evolution,
// prefetch, migration warm-up — passes that record along. Records of one
// component made from different copies share its function list too, so a
// row's descriptor pointer is the same whichever record it came through.
using ComponentRecord = std::shared_ptr<const ImplementationComponent>;

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
