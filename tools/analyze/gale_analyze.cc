// gale_analyze — multi-pass, multi-TU static analyzer for the GALE tree.
//
// Token-level single-file rules, a cross-TU include-graph pass enforcing
// the module layering DAG, a parallel scan with an incremental cache, and
// text or SARIF output. See rules.h for the rule catalog and
// annotations.h for the exact allow() suppression scope.
//
// Usage:
//   gale_analyze [options] <repo_root>
//   gale_analyze --self-test
//   gale_analyze --list-rules
//
// Options:
//   --format=text|sarif  report format on stdout (default text)
//   --cache=<file>       incremental cache: warm runs re-tokenize only
//                        changed files (mtime+size fast path, content
//                        hash on mismatch)
//   --rules=<id,id,...>  report only these rules (the scan still runs
//                        every pass so the cache stays rule-complete)
//
// Scan statistics go to stderr so stdout is byte-identical across
// cold/warm cache runs and thread counts; CI diffs stdout directly.
// Exit status: 0 clean, 1 findings, 2 usage/configuration error.

#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/output.h"
#include "analyze/rules.h"
#include "analyze/scanner.h"
#include "analyze/selftest.h"

namespace {

int Usage() {
  std::cerr
      << "usage: gale_analyze [--format=text|sarif] [--cache=<file>]\n"
      << "                    [--rules=<id,id,...>] <repo_root>\n"
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

  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "sarif") return Usage();
    } else if (arg.rfind("--cache=", 0) == 0) {
      options.cache_path = arg.substr(8);
    } else if (arg == "--cache" && i + 1 < args.size()) {
      options.cache_path = args[++i];
    } else if (arg.rfind("--rules=", 0) == 0) {
      std::istringstream split(arg.substr(8));
      std::string rule;
      while (std::getline(split, rule, ',')) {
        if (rule.empty()) continue;
        if (gale::analyze::RuleIds().count(rule) == 0) {
          std::cerr << "gale_analyze: unknown rule '" << rule
                    << "' (see --list-rules)\n";
          return 2;
        }
        options.only_rules.insert(rule);
      }
    } else if (!arg.empty() && arg[0] != '-' && root.empty()) {
      root = arg;
    } else {
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
  if (format == "sarif") {
    std::cout << gale::analyze::FormatSarif(result.findings);
  } else {
    std::cout << gale::analyze::FormatText(result.findings);
  }
  std::cerr << "gale_analyze: " << result.stats.files << " file(s), "
            << result.stats.cache_hits << " cache hit(s), "
            << result.stats.retokenized << " re-tokenized, "
            << result.findings.size() << " finding(s)\n";
  return result.findings.empty() ? 0 : 1;
}
