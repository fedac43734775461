#include "instrument/diagnostics.h"

#include <sstream>

namespace dcdo::check {
namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::ostringstream out;
  out << "[" << SeverityName(severity) << "] t=" << time.ToSeconds()
      << "s ev=" << event_id << " " << invariant;
  if (!object.nil()) out << " obj=" << object.ToString();
  if (version.valid()) out << " v=" << version.ToString();
  out << ": " << message;
  return out.str();
}

std::string Diagnostic::ToJson() const {
  std::ostringstream out;
  out << "{\"severity\":\"" << SeverityName(severity) << "\""
      << ",\"invariant\":\"" << JsonEscape(invariant) << "\""
      << ",\"time_ns\":" << time.nanos()
      << ",\"event\":" << event_id
      << ",\"object\":\"" << (object.nil() ? "" : object.ToString()) << "\""
      << ",\"version\":\"" << (version.valid() ? version.ToString() : "")
      << "\""
      << ",\"message\":\"" << JsonEscape(message) << "\"}";
  return out.str();
}

void Diagnostics::Record(Diagnostic diagnostic) {
  entries_.push_back(std::move(diagnostic));
}

std::size_t Diagnostics::errors() const {
  std::size_t n = 0;
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

std::size_t Diagnostics::warnings() const {
  std::size_t n = 0;
  for (const Diagnostic& d : entries_) {
    if (d.severity == Severity::kWarning) ++n;
  }
  return n;
}

std::vector<const Diagnostic*> Diagnostics::For(
    std::string_view invariant) const {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : entries_) {
    if (d.invariant == invariant) out.push_back(&d);
  }
  return out;
}

std::string Diagnostics::DumpText() const {
  std::ostringstream out;
  for (const Diagnostic& d : entries_) out << d.ToString() << "\n";
  return out.str();
}

std::string Diagnostics::DumpJson() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ",";
    out << entries_[i].ToJson();
  }
  out << "]";
  return out.str();
}

}  // namespace dcdo::check
