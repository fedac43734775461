#include "component/component.h"

#include <algorithm>
#include <numeric>

namespace dcdo {

void FunctionList::push_back(FunctionImplDescriptor fn) {
  if (list_ == nullptr) {
    list_ = std::make_shared<std::vector<FunctionImplDescriptor>>();
  } else if (list_.use_count() > 1) {
    list_ = std::make_shared<std::vector<FunctionImplDescriptor>>(*list_);
  }
  list_->push_back(std::move(fn));
}

const FunctionImplDescriptor* ImplementationComponent::Find(
    const std::string& function_name) const {
  for (const FunctionImplDescriptor& fn : functions) {
    if (fn.function.name == function_name) return &fn;
  }
  return nullptr;
}

namespace {

// Position of the first function whose name repeats an earlier one, or
// functions.size() when every name is unique. Sorting the positions by
// (name, position) puts each repeat right after an equal name; the smallest
// such position is the first repeat a front-to-back scan would meet.
std::size_t FirstRepeatedName(const FunctionList& functions) {
  auto name = [&](std::size_t i) -> const std::string& {
    return functions[i].function.name;
  };
  std::vector<std::size_t> order(functions.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    const int by_name = name(a).compare(name(b));
    return by_name < 0 || (by_name == 0 && a < b);
  });
  std::size_t first = functions.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (name(order[i]) == name(order[i - 1])) {
      first = std::min(first, order[i]);
    }
  }
  return first;
}

}  // namespace

Status ImplementationComponent::Validate() const {
  if (name.empty()) return InvalidArgumentError("component has no name");
  const std::size_t repeat = FirstRepeatedName(functions);
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionImplDescriptor& fn = functions[i];
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
    if (i == repeat) {
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
  if (arch > static_cast<std::uint32_t>(sim::Architecture::kX86Nt)) {
    return InvalidArgumentError("bad architecture on the wire");
  }
  if (format > static_cast<std::uint32_t>(CodeFormat::kPortableBytecode)) {
    return InvalidArgumentError("bad code format on the wire");
  }
  if (language > static_cast<std::uint32_t>(Language::kAny)) {
    return InvalidArgumentError("bad language on the wire");
  }
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
    if (visibility > static_cast<std::uint32_t>(Visibility::kInternal)) {
      return InvalidArgumentError("bad visibility on the wire");
    }
    if (constraint > static_cast<std::uint32_t>(Constraint::kPermanent)) {
      return InvalidArgumentError("bad constraint on the wire");
    }
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
