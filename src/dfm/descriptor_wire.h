// Wire form of DFM descriptors.
//
// A DCDO Manager configures the objects under its control by shipping them
// DFM descriptors — when a DCDO "is created, when it migrates to a host, or
// when it evolves to a new version" (Section 2.4). This is the marshaled
// representation: the version id, the instantiable flag, every incorporated
// component's metadata, every (function, component) row's flags, the
// mandatory set, and the dependency set.
//
// Parsing *reconstructs* the descriptor through its public configuration
// operations, so a corrupted or inconsistent wire image is rejected by the
// same validation that guards live configuration — there is no backdoor that
// bypasses the model's invariants.
#pragma once

#include "common/bytes.h"
#include "common/status.h"
#include "dfm/descriptor.h"

namespace dcdo {

class Reader;
class Writer;

ByteBuffer SerializeDescriptor(const DfmDescriptor& descriptor);
[[nodiscard]] Result<DfmDescriptor> ParseDescriptor(const ByteBuffer& wire);

// One dependency: kind u32, dependent, has-c1/c1, target, has-c2/c2. The
// descriptor's dependency set and the remote dcdo.addDependency /
// dcdo.removeDependency arguments share this form. Reading validates the
// dependency (Dependency::Validate), so a malformed one is kInvalidArgument.
void WriteDependency(Writer& writer, const Dependency& dep);
[[nodiscard]] Result<Dependency> ReadDependency(Reader& reader);

}  // namespace dcdo
