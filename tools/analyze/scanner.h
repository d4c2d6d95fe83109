// Tree scanner: enumeration and file reading in front of the one analysis
// pipeline (parallel per-file pass, then the cross-TU include-graph pass)
// that the self-test fixtures run too.
//
// Determinism contract: findings are sorted by (file, line, rule,
// message) and every per-file result lands in a slot indexed by the
// file's position in the input, so the report is byte-identical at any
// GALE_NUM_THREADS (pinned by analyze_scanner_test and the check_all.sh
// analyze stage).

#ifndef GALE_TOOLS_ANALYZE_SCANNER_H_
#define GALE_TOOLS_ANALYZE_SCANNER_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/finding.h"

namespace gale::analyze {

struct ScanOptions {
  // When non-empty, only findings of these rules are reported (the scan
  // still runs every pass; the filter is at the report stage).
  std::set<std::string> only_rules;
};

struct ScanResult {
  std::vector<Finding> findings;  // sorted, deterministic
  size_t files = 0;               // files enumerated
};

// Scans src/, tests/, bench/, tools/, examples/ under `root`: reads every
// .cc/.h/.cpp/.hpp file and runs AnalyzeFileSet over them.
ScanResult ScanTree(const std::string& root, const ScanOptions& options);

// Runs the single-TU pass on every (path, content) pair in parallel — a
// .cc/.cpp is paired with the .h of the same stem within the set — then
// the include-graph pass, and returns the sorted findings.
std::vector<Finding> AnalyzeFileSet(
    const std::vector<std::pair<std::string, std::string>>& files);

}  // namespace gale::analyze

#endif  // GALE_TOOLS_ANALYZE_SCANNER_H_
