#include "component/component.h"

#include <set>

namespace dcdo {

const FunctionImplDescriptor* ImplementationComponent::Find(
    const std::string& function_name) const {
  for (const FunctionImplDescriptor& fn : functions) {
    if (fn.function.name == function_name) return &fn;
  }
  return nullptr;
}

Status ImplementationComponent::Validate() const {
  if (name.empty()) return InvalidArgumentError("component has no name");
  std::set<std::string> seen;
  for (const FunctionImplDescriptor& fn : functions) {
    if (fn.function.name.empty()) {
      return InvalidArgumentError("component '" + name +
                                  "' has a function with an empty name");
    }
    if (fn.symbol.empty()) {
      return InvalidArgumentError("function '" + fn.function.name +
                                  "' in component '" + name +
                                  "' has no symbol");
    }
    for (const std::string& callee : fn.calls) {
      if (callee.empty()) {
        return InvalidArgumentError("function '" + fn.function.name +
                                    "' in component '" + name +
                                    "' names an empty callee");
      }
    }
    if (!seen.insert(fn.function.name).second) {
      return InvalidArgumentError("component '" + name +
                                  "' implements function '" +
                                  fn.function.name + "' twice");
    }
  }
  if (!functions.empty() && code_bytes == 0) {
    return InvalidArgumentError("component '" + name +
                                "' declares functions but no code image");
  }
  return Status::Ok();
}

ComponentBuilder::ComponentBuilder(std::string name) {
  component_.name = std::move(name);
  component_.type = ImplementationType::Portable();
  component_.code_bytes = 16 * 1024;  // a small default image
}

ComponentBuilder& ComponentBuilder::SetType(const ImplementationType& type) {
  component_.type = type;
  return *this;
}

ComponentBuilder& ComponentBuilder::SetCodeBytes(std::size_t bytes) {
  component_.code_bytes = bytes;
  return *this;
}

ComponentBuilder& ComponentBuilder::AddFunction(
    std::string function_name, std::string signature, std::string symbol,
    Visibility visibility, Constraint constraint,
    std::vector<std::string> calls) {
  FunctionImplDescriptor fn;
  fn.function = FunctionSignature{std::move(function_name),
                                  std::move(signature)};
  fn.visibility = visibility;
  fn.constraint = constraint;
  fn.symbol = std::move(symbol);
  fn.calls = std::move(calls);
  component_.functions.push_back(std::move(fn));
  return *this;
}

Result<ImplementationComponent> ComponentBuilder::Build() {
  DCDO_RETURN_IF_ERROR(component_.Validate());
  component_.id = ObjectId::Next(domains::kComponent);
  return component_;
}

ByteBuffer SerializeComponentMeta(const ImplementationComponent& component) {
  Writer writer;
  writer.WriteObjectId(component.id);
  writer.WriteString(component.name);
  writer.WriteU32(static_cast<std::uint32_t>(component.type.architecture));
  writer.WriteU32(static_cast<std::uint32_t>(component.type.format));
  writer.WriteU32(static_cast<std::uint32_t>(component.type.language));
  writer.WriteU64(component.code_bytes);
  writer.WriteU64(component.functions.size());
  for (const FunctionImplDescriptor& fn : component.functions) {
    writer.WriteString(fn.function.name);
    writer.WriteString(fn.function.signature);
    writer.WriteU32(static_cast<std::uint32_t>(fn.visibility));
    writer.WriteU32(static_cast<std::uint32_t>(fn.constraint));
    writer.WriteString(fn.symbol);
    writer.WriteU64(fn.calls.size());
    for (const std::string& callee : fn.calls) writer.WriteString(callee);
  }
  return std::move(writer).Take();
}

Result<ImplementationComponent> ParseComponentMeta(const ByteBuffer& buffer) {
  Reader reader(buffer);
  ImplementationComponent component;
  DCDO_ASSIGN_OR_RETURN(component.id, reader.ReadObjectId());
  DCDO_ASSIGN_OR_RETURN(component.name, reader.ReadString());
  DCDO_ASSIGN_OR_RETURN(std::uint32_t arch, reader.ReadU32());
  DCDO_ASSIGN_OR_RETURN(std::uint32_t format, reader.ReadU32());
  DCDO_ASSIGN_OR_RETURN(std::uint32_t language, reader.ReadU32());
  component.type.architecture = static_cast<sim::Architecture>(arch);
  component.type.format = static_cast<CodeFormat>(format);
  component.type.language = static_cast<Language>(language);
  DCDO_ASSIGN_OR_RETURN(component.code_bytes, reader.ReadU64());
  DCDO_ASSIGN_OR_RETURN(std::uint64_t count, reader.ReadU64());
  for (std::uint64_t i = 0; i < count; ++i) {
    FunctionImplDescriptor fn;
    DCDO_ASSIGN_OR_RETURN(fn.function.name, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(fn.function.signature, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(std::uint32_t visibility, reader.ReadU32());
    DCDO_ASSIGN_OR_RETURN(std::uint32_t constraint, reader.ReadU32());
    fn.visibility = static_cast<Visibility>(visibility);
    fn.constraint = static_cast<Constraint>(constraint);
    DCDO_ASSIGN_OR_RETURN(fn.symbol, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(std::uint64_t calls, reader.ReadU64());
    for (std::uint64_t j = 0; j < calls; ++j) {
      DCDO_ASSIGN_OR_RETURN(std::string callee, reader.ReadString());
      fn.calls.push_back(std::move(callee));
    }
    component.functions.push_back(std::move(fn));
  }
  DCDO_RETURN_IF_ERROR(component.Validate());
  return component;
}

}  // namespace dcdo
