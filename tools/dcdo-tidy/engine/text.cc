#include "engine/text.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace dcdo_tidy {

bool SourceFile::Load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  LoadFromString(path, buf.str());
  return true;
}

void SourceFile::LoadFromString(std::string path, std::string text) {
  path_ = std::move(path);
  raw_ = std::move(text);
  Analyze();
}

namespace {

// Parses a NOLINT comment filter list: "NOLINT" -> all checks (empty list),
// "NOLINT(a, b)" -> {a, b}. Returns false if `at` is not a NOLINT marker.
bool ParseNolintList(std::string_view comment, std::size_t at,
                     std::vector<std::string>* list) {
  list->clear();
  std::size_t pos = at + std::string_view("NOLINT").size();
  if (pos < comment.size() && comment.compare(pos, 8, "NEXTLINE") == 0) {
    pos += 8;
  }
  if (pos >= comment.size() || comment[pos] != '(') {
    return true;  // bare NOLINT: suppress everything
  }
  std::size_t close = comment.find(')', pos);
  if (close == std::string_view::npos) return true;
  std::string_view inner = comment.substr(pos + 1, close - pos - 1);
  std::size_t start = 0;
  while (start <= inner.size()) {
    std::size_t comma = inner.find(',', start);
    std::string_view item = inner.substr(
        start, comma == std::string_view::npos ? inner.size() - start
                                               : comma - start);
    while (!item.empty() && std::isspace(static_cast<unsigned char>(
                                item.front()))) {
      item.remove_prefix(1);
    }
    while (!item.empty() &&
           std::isspace(static_cast<unsigned char>(item.back()))) {
      item.remove_suffix(1);
    }
    if (!item.empty()) list->emplace_back(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return true;
}

bool ListCovers(const std::vector<std::string>& list, std::string_view check) {
  if (list.empty()) return true;  // bare NOLINT
  for (const std::string& item : list) {
    if (item == check) return true;
    // Support a trailing-* glob, e.g. NOLINT(dcdo-*).
    if (!item.empty() && item.back() == '*' &&
        check.substr(0, item.size() - 1) ==
            std::string_view(item).substr(0, item.size() - 1)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void SourceFile::RecordNolint(std::size_t line, std::string_view comment) {
  std::size_t at = comment.find("NOLINT");
  while (at != std::string_view::npos) {
    std::vector<std::string> list;
    ParseNolintList(comment, at, &list);
    bool next_line = comment.compare(at, 14, "NOLINTNEXTLINE") == 0;
    (next_line ? nolint_next_ : nolint_same_)[line] = std::move(list);
    at = comment.find("NOLINT", at + 6);
  }
}

void SourceFile::Analyze() {
  code_.assign(raw_.size(), ' ');
  line_starts_.clear();
  line_starts_.push_back(0);
  nolint_same_.clear();
  nolint_next_.clear();

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // raw-string delimiter, e.g. )foo"

  const std::size_t n = raw_.size();
  for (std::size_t i = 0; i < n; ++i) {
    char c = raw_[i];
    if (c == '\n') {
      line_starts_.push_back(i + 1);
      code_[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && raw_[i + 1] == '/') {
          state = State::kLineComment;
        } else if (c == '/' && i + 1 < n && raw_[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;  // consume '*' so "/*/" is not a complete comment
        } else if (c == '"') {
          // Raw string? Look back for R / uR / u8R / LR prefix.
          bool is_raw = false;
          if (i > 0 && raw_[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(raw_[i - 2]) || raw_[i - 2] == '8' ||
               raw_[i - 2] == 'u' || raw_[i - 2] == 'L')) {
            is_raw = true;
          }
          if (is_raw) {
            std::size_t paren = raw_.find('(', i + 1);
            if (paren != std::string::npos) {
              raw_delim = ")" + raw_.substr(i + 1, paren - i - 1) + "\"";
              state = State::kRawString;
              code_[i] = '"';
              continue;
            }
          }
          state = State::kString;
          code_[i] = '"';
          continue;
        } else if (c == '\'') {
          // Heuristic: a quote after an identifier char or digit is a C++14
          // digit separator (1'000'000), not a character literal.
          if (i > 0 && (std::isalnum(static_cast<unsigned char>(raw_[i - 1])) ||
                        raw_[i - 1] == '_')) {
            code_[i] = c;
            continue;
          }
          state = State::kChar;
          code_[i] = '\'';
          continue;
        }
        if (state == State::kCode) code_[i] = c;
        break;
      case State::kLineComment:
        break;  // stays blank; newline handled above
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && raw_[i + 1] == '/') {
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          code_[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          code_[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && raw_.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          code_[i] = '"';
          state = State::kCode;
        }
        break;
    }
  }

  // Second pass for NOLINT markers: scan each raw line's comment portion.
  // (Doing it per-line keeps the state machine above simple; NOLINT markers
  // are, by convention, on the line they affect.)
  for (std::size_t line = 1; line <= line_starts_.size(); ++line) {
    std::string_view text = RawLine(line);
    if (text.find("NOLINT") != std::string_view::npos) {
      RecordNolint(line, text);
    }
  }
}

std::size_t SourceFile::LineOf(std::size_t offset) const {
  auto it = std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<std::size_t>(it - line_starts_.begin());
}

std::size_t SourceFile::ColOf(std::size_t offset) const {
  std::size_t line = LineOf(offset);
  return offset - line_starts_[line - 1] + 1;
}

std::string_view SourceFile::RawLine(std::size_t line) const {
  if (line == 0 || line > line_starts_.size()) return {};
  std::size_t begin = line_starts_[line - 1];
  std::size_t end = line < line_starts_.size() ? line_starts_[line] - 1
                                               : raw_.size();
  if (end > raw_.size()) end = raw_.size();
  if (end > begin && raw_[end - 1] == '\r') --end;
  return std::string_view(raw_).substr(begin, end - begin);
}

bool SourceFile::IsSuppressed(std::size_t line, std::string_view check) const {
  if (auto it = nolint_same_.find(line); it != nolint_same_.end()) {
    if (ListCovers(it->second, check)) return true;
  }
  if (line > 1) {
    if (auto it = nolint_next_.find(line - 1); it != nolint_next_.end()) {
      if (ListCovers(it->second, check)) return true;
    }
  }
  return false;
}

// --- Token helpers ---

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

std::string_view IdentAt(std::string_view code, std::size_t pos) {
  if (pos >= code.size() || !IsIdentStart(code[pos])) return {};
  std::size_t end = pos;
  while (end < code.size() && IsIdentChar(code[end])) ++end;
  return code.substr(pos, end - pos);
}

bool IsWholeIdent(std::string_view code, std::size_t pos, std::size_t len) {
  if (pos > 0 && IsIdentChar(code[pos - 1])) return false;
  if (pos + len < code.size() && IsIdentChar(code[pos + len])) return false;
  return true;
}

std::size_t FindIdent(std::string_view code, std::string_view ident,
                      std::size_t from) {
  std::size_t pos = code.find(ident, from);
  while (pos != std::string_view::npos) {
    if (IsWholeIdent(code, pos, ident.size())) return pos;
    pos = code.find(ident, pos + 1);
  }
  return std::string_view::npos;
}

std::size_t MatchForward(std::string_view code, std::size_t open) {
  if (open >= code.size()) return std::string_view::npos;
  char o = code[open];
  char c;
  switch (o) {
    case '(': c = ')'; break;
    case '[': c = ']'; break;
    case '{': c = '}'; break;
    case '<': c = '>'; break;
    default: return std::string_view::npos;
  }
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    char ch = code[i];
    if (o == '<') {
      // Inside template scans, parens/braces hide everything within.
      if (ch == '(' || ch == '{' || ch == '[') {
        std::size_t close = MatchForward(code, i);
        if (close == std::string_view::npos) return std::string_view::npos;
        i = close;
        continue;
      }
      // Skip shift operators.
      if ((ch == '<' || ch == '>') && i + 1 < code.size() &&
          code[i + 1] == ch) {
        // >> closes two template levels in C++11+, but a template argument
        // list of a declaration we scan always opens both here too.
        if (ch == '>') {
          depth -= 2;
          ++i;
          if (depth <= 0) return i;
          continue;
        }
        ++i;
        continue;
      }
      if (ch == '-' && i + 1 < code.size() && code[i + 1] == '>') {
        ++i;  // arrow, not a closer
        continue;
      }
    }
    if (ch == o) {
      ++depth;
    } else if (ch == c) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

std::size_t SkipWs(std::string_view code, std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos]))) {
    ++pos;
  }
  return pos < code.size() ? pos : std::string_view::npos;
}

std::size_t SkipWsBack(std::string_view code, std::size_t pos) {
  while (pos != std::string_view::npos && pos > 0 &&
         std::isspace(static_cast<unsigned char>(code[pos]))) {
    --pos;
  }
  if (pos == 0 && (code.empty() ||
                   std::isspace(static_cast<unsigned char>(code[0])))) {
    return std::string_view::npos;
  }
  return pos;
}

std::vector<Piece> SplitTopLevel(std::string_view code, std::size_t begin,
                                 std::size_t end, char sep) {
  std::vector<Piece> out;
  int paren = 0, brace = 0, bracket = 0, angle = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end && i < code.size(); ++i) {
    char c = code[i];
    switch (c) {
      case '(': ++paren; break;
      case ')': --paren; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      case '<': ++angle; break;
      case '>':
        if (i > 0 && code[i - 1] == '-') break;  // arrow
        if (angle > 0) --angle;
        break;
      default: break;
    }
    if (c == sep && paren == 0 && brace == 0 && bracket == 0 && angle == 0) {
      out.push_back(Trim(code, start, i));
      start = i + 1;
    }
  }
  if (start < end) out.push_back(Trim(code, start, end));
  return out;
}

Piece Trim(std::string_view code, std::size_t begin, std::size_t end) {
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(code[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(code[end - 1]))) {
    --end;
  }
  return {begin, end};
}

}  // namespace dcdo_tidy
