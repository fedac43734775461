// dcdo-analyze: driver for the dcdo-tidy checks.
//
// Usage:
//   dcdo-analyze [options] FILE...
//     --checks=a,b,...        run only the named checks (default: all)
//     --allow-wallclock=PFX   path prefix where dcdo-wallclock-in-sim is
//                             quiet (repeatable; scripts/analyze.sh passes
//                             src/instrument/spans. and bench/)
//     --baseline=FILE         suppress findings listed in FILE
//     --write-baseline=FILE   write current findings to FILE and exit 0
//     --list-checks           print check names and exit
//
// Output mirrors clang-tidy: `path:line:col: warning: message [check]`.
// Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage/IO
// error. In-code `// NOLINT(check)` / `// NOLINTNEXTLINE(check)` comments
// (with a reason!) are the preferred suppression; the baseline file is for
// transitional bulk suppression only.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/checks.h"
#include "engine/text.h"

namespace {

using dcdo_tidy::CheckOptions;
using dcdo_tidy::Finding;
using dcdo_tidy::ProjectIndex;
using dcdo_tidy::SourceFile;

std::string BaselineKey(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": " << f.check;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CheckOptions options;
  std::vector<std::string> files;
  std::string baseline_path;
  std::string write_baseline_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size());
    };
    if (arg == "--list-checks") {
      for (const std::string& name : dcdo_tidy::AllCheckNames()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg.rfind("--checks=", 0) == 0) {
      std::stringstream ss(value_of("--checks="));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) options.enabled.insert(item);
      }
    } else if (arg.rfind("--allow-wallclock=", 0) == 0) {
      options.wallclock_allow_prefixes.push_back(
          value_of("--allow-wallclock="));
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value_of("--baseline=");
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = value_of("--write-baseline=");
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "dcdo-analyze: unknown option " << arg << "\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: dcdo-analyze [--checks=...] [--baseline=FILE] "
                 "[--allow-wallclock=PREFIX]... FILE...\n";
    return 2;
  }

  for (const std::string& name : options.enabled) {
    const auto& all = dcdo_tidy::AllCheckNames();
    if (std::find(all.begin(), all.end(), name) == all.end()) {
      std::cerr << "dcdo-analyze: unknown check " << name
                << " (see --list-checks)\n";
      return 2;
    }
  }

  // Load everything up front: the status-discard check needs a project-wide
  // index of Status-returning declarations before any file is checked.
  std::vector<SourceFile> sources(files.size());
  ProjectIndex index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string error;
    if (!sources[i].Load(files[i], &error)) {
      std::cerr << "dcdo-analyze: " << error << "\n";
      return 2;
    }
    dcdo_tidy::IndexFile(sources[i], &index);
  }

  std::vector<Finding> findings;
  for (const SourceFile& file : sources) {
    dcdo_tidy::RunChecks(file, index, options, &findings);
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "dcdo-analyze: cannot write " << write_baseline_path
                << "\n";
      return 2;
    }
    out << "# dcdo-tidy suppression baseline. One `path:line: check` entry\n"
           "# per finding. Prefer in-code NOLINT(check) comments with a\n"
           "# reason; this file is for transitional bulk suppression.\n";
    for (const Finding& f : findings) {
      out << BaselineKey(f) << "\n";
    }
    std::cout << "dcdo-analyze: wrote " << findings.size()
              << " baseline entr" << (findings.size() == 1 ? "y" : "ies")
              << " to " << write_baseline_path << "\n";
    return 0;
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "dcdo-analyze: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') baseline.insert(line);
    }
  }

  int reported = 0;
  int suppressed = 0;
  for (const Finding& f : findings) {
    if (baseline.count(BaselineKey(f)) != 0) {
      ++suppressed;
      continue;
    }
    std::cout << f.file << ":" << f.line << ":" << f.col
              << ": warning: " << f.message << " [" << f.check << "]\n";
    ++reported;
  }
  if (reported > 0 || suppressed > 0) {
    std::cerr << "dcdo-analyze: " << reported << " finding"
              << (reported == 1 ? "" : "s");
    if (suppressed > 0) {
      std::cerr << " (" << suppressed << " baseline-suppressed)";
    }
    std::cerr << " across " << files.size() << " file"
              << (files.size() == 1 ? "" : "s") << "\n";
  }
  return reported > 0 ? 1 : 0;
}
