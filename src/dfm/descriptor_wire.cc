#include "dfm/descriptor_wire.h"

#include "common/serialize.h"

namespace dcdo {

void WriteDependency(Writer& writer, const Dependency& dep) {
  writer.WriteU32(static_cast<std::uint32_t>(dep.kind));
  writer.WriteString(dep.dependent);
  writer.WriteBool(dep.dependent_component.has_value());
  if (dep.dependent_component) {
    writer.WriteObjectId(*dep.dependent_component);
  }
  writer.WriteString(dep.target);
  writer.WriteBool(dep.target_component.has_value());
  if (dep.target_component) {
    writer.WriteObjectId(*dep.target_component);
  }
}

Result<Dependency> ReadDependency(Reader& reader) {
  Dependency dep;
  DCDO_ASSIGN_OR_RETURN(std::uint32_t kind, reader.ReadU32());
  if (kind > static_cast<std::uint32_t>(DependencyKind::kTypeD)) {
    return InvalidArgumentError("bad dependency kind on the wire");
  }
  dep.kind = static_cast<DependencyKind>(kind);
  DCDO_ASSIGN_OR_RETURN(dep.dependent, reader.ReadString());
  DCDO_ASSIGN_OR_RETURN(bool has_c1, reader.ReadBool());
  if (has_c1) {
    DCDO_ASSIGN_OR_RETURN(ObjectId c1, reader.ReadObjectId());
    dep.dependent_component = c1;
  }
  DCDO_ASSIGN_OR_RETURN(dep.target, reader.ReadString());
  DCDO_ASSIGN_OR_RETURN(bool has_c2, reader.ReadBool());
  if (has_c2) {
    DCDO_ASSIGN_OR_RETURN(ObjectId c2, reader.ReadObjectId());
    dep.target_component = c2;
  }
  DCDO_RETURN_IF_ERROR(dep.Validate());
  return dep;
}

ByteBuffer SerializeDescriptor(const DfmDescriptor& descriptor) {
  Writer writer;
  writer.WriteVersionId(descriptor.version());
  writer.WriteBool(descriptor.instantiable());
  const DfmState& state = descriptor.state();

  writer.WriteU64(state.component_count());
  for (const ComponentRecord& record : state.components()) {
    writer.WriteBytes(SerializeComponentMeta(*record));
  }

  writer.WriteU64(state.entry_count());
  for (const DfmEntry& entry : state.entries()) {
    writer.WriteString(entry.name());
    writer.WriteObjectId(entry.component);
    writer.WriteU32(static_cast<std::uint32_t>(entry.visibility));
    writer.WriteBool(entry.enabled);
    writer.WriteBool(entry.permanent);
  }

  writer.WriteU64(state.mandatory_functions().size());
  for (const std::string& function : state.mandatory_functions()) {
    writer.WriteString(function);
  }

  writer.WriteU64(state.dependencies().size());
  for (const Dependency& dep : state.dependencies().all()) {
    WriteDependency(writer, dep);
  }
  return std::move(writer).Take();
}

Result<DfmDescriptor> ParseDescriptor(const ByteBuffer& wire) {
  Reader reader(wire);
  DCDO_ASSIGN_OR_RETURN(VersionId version, reader.ReadVersionId());
  DCDO_ASSIGN_OR_RETURN(bool instantiable, reader.ReadBool());
  DfmDescriptor descriptor(version);

  DCDO_ASSIGN_OR_RETURN(std::uint64_t component_count, reader.ReadU64());
  for (std::uint64_t i = 0; i < component_count; ++i) {
    DCDO_ASSIGN_OR_RETURN(ByteBuffer meta_wire, reader.ReadBytes());
    DCDO_ASSIGN_OR_RETURN(ImplementationComponent meta,
                          ParseComponentMeta(meta_wire));
    // Dependencies travel explicitly below; don't auto-derive.
    DCDO_RETURN_IF_ERROR(descriptor.IncorporateComponent(
        meta, /*auto_structural_deps=*/false));
  }

  struct Row {
    std::string function;
    ObjectId component;
    Visibility visibility;
    bool enabled;
    bool permanent;
  };
  DCDO_ASSIGN_OR_RETURN(std::uint64_t entry_count, reader.ReadU64());
  // Smallest row on the wire: an empty name (its u64 length), the
  // component id, the visibility and the two flags.
  constexpr std::size_t kMinRowBytes = sizeof(std::uint64_t) +
                                       2 * sizeof(std::uint64_t) +
                                       sizeof(std::uint32_t) + 2;
  if (entry_count > reader.remaining() / kMinRowBytes) {
    return OutOfRangeError("descriptor rows overrun archive");
  }
  std::vector<Row> rows;
  rows.reserve(entry_count);
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    Row row;
    DCDO_ASSIGN_OR_RETURN(row.function, reader.ReadString());
    DCDO_ASSIGN_OR_RETURN(row.component, reader.ReadObjectId());
    DCDO_ASSIGN_OR_RETURN(std::uint32_t visibility, reader.ReadU32());
    if (visibility > static_cast<std::uint32_t>(Visibility::kInternal)) {
      return InvalidArgumentError("bad visibility on the wire");
    }
    row.visibility = static_cast<Visibility>(visibility);
    DCDO_ASSIGN_OR_RETURN(row.enabled, reader.ReadBool());
    DCDO_ASSIGN_OR_RETURN(row.permanent, reader.ReadBool());
    rows.push_back(std::move(row));
  }
  // Apply in dependency-safe order: visibilities, enables, permanence.
  for (const Row& row : rows) {
    DCDO_RETURN_IF_ERROR(
        descriptor.SetVisibility(row.function, row.component, row.visibility));
  }
  for (const Row& row : rows) {
    if (row.enabled) {
      DCDO_RETURN_IF_ERROR(
          descriptor.EnableFunction(row.function, row.component));
    }
  }
  for (const Row& row : rows) {
    if (row.permanent) {
      DCDO_RETURN_IF_ERROR(
          descriptor.MarkPermanent(row.function, row.component));
    }
  }

  DCDO_ASSIGN_OR_RETURN(std::uint64_t mandatory_count, reader.ReadU64());
  for (std::uint64_t i = 0; i < mandatory_count; ++i) {
    DCDO_ASSIGN_OR_RETURN(std::string function, reader.ReadString());
    DCDO_RETURN_IF_ERROR(descriptor.MarkMandatory(function));
  }

  DCDO_ASSIGN_OR_RETURN(std::uint64_t dep_count, reader.ReadU64());
  for (std::uint64_t i = 0; i < dep_count; ++i) {
    DCDO_ASSIGN_OR_RETURN(Dependency dep, ReadDependency(reader));
    DCDO_RETURN_IF_ERROR(descriptor.AddDependency(std::move(dep)));
  }

  if (instantiable) {
    DCDO_RETURN_IF_ERROR(descriptor.MarkInstantiable());
  }
  return descriptor;
}

}  // namespace dcdo
