// gale_analyze — multi-pass, multi-TU static analyzer for the GALE tree.
//
// Token-level single-file rules, a cross-TU include-graph pass enforcing
// the module layering DAG, a parallel scan, and text or SARIF output. See
// rules.h for the rule catalog and annotations.h for the exact allow()
// suppression scope.
//
// Usage:
//   gale_analyze [options] <repo_root>
//   gale_analyze --self-test
//   gale_analyze --list-rules
//
// Options:
//   --format=text|sarif  report format on stdout (default text)
//   --rules=<id,id,...>  report only these rules (the scan still runs
//                        every pass)
//
// Scan statistics go to stderr so stdout is byte-identical across thread
// counts; CI diffs stdout directly.
// Exit status: 0 clean, 1 findings, 2 usage/configuration error (an
// unknown option or rule, an empty --rules= list, or a root under which
// no source file was found).

#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "analyze/output.h"
#include "analyze/rules.h"
#include "analyze/scanner.h"
#include "analyze/selftest.h"

namespace {

int Usage() {
  std::cerr
      << "usage: gale_analyze [--format=text|sarif] [--rules=<id,id,...>]\n"
      << "                    <repo_root>\n"
      << "       gale_analyze --self-test | --list-rules\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string format = "text";
  gale::analyze::ScanOptions options;
  bool self_test = false;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "sarif") return Usage();
    } else if (arg.rfind("--rules=", 0) == 0) {
      std::istringstream split(arg.substr(8));
      std::string rule;
      bool named = false;
      while (std::getline(split, rule, ',')) {
        if (rule.empty()) continue;
        if (gale::analyze::RuleIds().count(rule) == 0) {
          std::cerr << "gale_analyze: unknown rule '" << rule
                    << "' (see --list-rules)\n";
          return 2;
        }
        options.only_rules.insert(rule);
        named = true;
      }
      if (!named) {
        std::cerr << "gale_analyze: --rules= names no rule\n";
        return 2;
      }
    } else if (!arg.empty() && arg[0] != '-' && root.empty()) {
      root = arg;
    } else {
      if (arg[0] == '-') {
        std::cerr << "gale_analyze: unknown option '" << arg << "'\n";
      }
      return Usage();
    }
  }

  if (self_test) {
    const int failures = gale::analyze::RunSelfTest(std::cout);
    return failures == 0 ? 0 : 1;
  }
  if (list_rules) {
    for (const gale::analyze::RuleInfo& r : gale::analyze::RuleCatalog()) {
      std::cout << r.id << "  " << r.summary << "\n";
    }
    return 0;
  }
  if (root.empty()) return Usage();

  const gale::analyze::ScanResult result =
      gale::analyze::ScanTree(root, options);
  if (result.files == 0) {
    std::cerr << "gale_analyze: no source files under '" << root
              << "' (expected src/, tests/, bench/, tools/ or examples/)\n";
    return 2;
  }
  if (format == "sarif") {
    std::cout << gale::analyze::FormatSarif(result.findings);
  } else {
    std::cout << gale::analyze::FormatText(result.findings);
  }
  std::cerr << "gale_analyze: " << result.files << " file(s), "
            << result.findings.size() << " finding(s)\n";
  return result.findings.empty() ? 0 : 1;
}
