#include "dfm/compatibility.h"

#include <map>

namespace dcdo {

std::string_view CompatibilityName(Compatibility compatibility) {
  switch (compatibility) {
    case Compatibility::kIdentical: return "identical";
    case Compatibility::kBehavioral: return "behavioral";
    case Compatibility::kExtension: return "extension";
    case Compatibility::kBreaking: return "breaking";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, Compatibility compatibility) {
  return os << CompatibilityName(compatibility);
}

std::string CompatibilityReport::Summary() const {
  std::string out(CompatibilityName(level));
  if (!removed.empty()) {
    out += "; removed:";
    for (const FunctionSignature& fn : removed) out += " " + fn.name;
  }
  if (!signature_changed.empty()) {
    out += "; re-signed:";
    for (const FunctionSignature& fn : signature_changed) out += " " + fn.name;
  }
  if (!added.empty()) {
    out += "; added:";
    for (const FunctionSignature& fn : added) out += " " + fn.name;
  }
  if (!reimplemented.empty()) {
    out += "; reimplemented:";
    for (const std::string& fn : reimplemented) out += " " + fn;
  }
  return out;
}

CompatibilityReport ClassifyTransition(const DfmState& from,
                                       const DfmState& to) {
  CompatibilityReport report;
  std::map<std::string, FunctionSignature> before;
  std::map<std::string, FunctionSignature> after;
  for (const FunctionSignature& fn : from.ExportedInterface()) {
    before[fn.name] = fn;
  }
  for (const FunctionSignature& fn : to.ExportedInterface()) {
    after[fn.name] = fn;
  }

  for (const auto& [name, signature] : before) {
    auto it = after.find(name);
    if (it == after.end()) {
      report.removed.push_back(signature);
      continue;
    }
    if (it->second.signature != signature.signature) {
      report.signature_changed.push_back(signature);
      continue;
    }
    // Same exported signature: did the implementation move?
    const DfmEntry* old_impl = from.EnabledImpl(name);
    const DfmEntry* new_impl = to.EnabledImpl(name);
    if (old_impl != nullptr && new_impl != nullptr &&
        (old_impl->component != new_impl->component ||
         old_impl->symbol() != new_impl->symbol())) {
      report.reimplemented.push_back(name);
    }
  }
  for (const auto& [name, signature] : after) {
    if (!before.contains(name)) report.added.push_back(signature);
  }

  if (!report.removed.empty() || !report.signature_changed.empty()) {
    report.level = Compatibility::kBreaking;
  } else if (!report.added.empty()) {
    report.level = Compatibility::kExtension;
  } else if (!report.reimplemented.empty()) {
    report.level = Compatibility::kBehavioral;
  } else {
    report.level = Compatibility::kIdentical;
  }
  return report;
}

}  // namespace dcdo
