// Per-file (single-TU) rule passes and the rule registry.
//
// Every rule operates on the token stream produced by analyze::Lex — no
// regexes over blanked text. The registry is the single source of truth
// for rule ids: annotations validate allow() names against it, the SARIF
// exporter emits it as the tool's rule catalog, and --list-rules prints
// it.
//
// Rule catalog (ids are what allow() annotations name):
//
// Single-TU determinism/safety rules (since PR 2-5):
//   rng              unseeded / wall-clock randomness outside src/util/rng
//   unordered-iter   range-for over an unordered container variable
//   io               std::cout/printf-family output in src/
//   naked-new        raw new/delete/malloc/free anywhere in the tree
//   shard-noinline   loops inside ParallelFor* closures in src/
//   raw-chrono-timing std::chrono clock reads in src/ outside src/obs/
//   simd-intrinsics  vendor SIMD intrinsics outside src/la/simd.h
//   hot-path-alloc   allocating kernel calls in a TU on the *Into path
//
// Token-level float-determinism rules (new in this PR):
//   float-compare    ==/!= with a floating operand in src/ — exact FP
//                    equality silently diverges across ISAs/partitions;
//                    compare against an explicit tolerance, or branch on
//                    <=/>= when the sentinel semantics allow it
//   nondet-reduce    std::accumulate / std::reduce / std::transform_reduce
//                    in src/ outside src/la/ — reductions must go through
//                    the la kernels (fixed shard boundaries, fixed
//                    combination order) to stay bitwise thread-invariant
//   env-read         getenv/setenv outside src/util/ + src/obs/ —
//                    configuration enters through explicit parameters, not
//                    ambient process state
//
// Cross-TU include-graph rules (include_graph.h):
//   include-layering, include-cycle, harness-include, simd-include
//
// Annotation hygiene (annotations.h): allow-reason, allow-unknown-rule.

#ifndef GALE_TOOLS_ANALYZE_RULES_H_
#define GALE_TOOLS_ANALYZE_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "analyze/finding.h"
#include "analyze/token.h"

namespace gale::analyze {

struct RuleInfo {
  std::string id;
  std::string summary;
};

// Every rule id the analyzer can emit, in stable catalog order.
const std::vector<RuleInfo>& RuleCatalog();

// The ids from RuleCatalog() as a set (for allow() validation).
const std::set<std::string>& RuleIds();

// Everything the scanner derives from one file in isolation: per-file
// findings are final, and `includes` + `include_allows` feed the cross-TU
// include-graph pass.
struct FileFacts {
  std::vector<Finding> findings;
  std::vector<IncludeDirective> includes;
  // Parallel to `includes`: rules allow()ed on/above that directive line.
  std::vector<std::set<std::string>> include_allows;
};

// Runs every single-TU rule over `content`. `sibling_header` is the
// paired .h of a .cc (empty if none): member declarations there feed the
// unordered-container, float-identifier, and *Into-adoption analyses of
// the .cc.
FileFacts AnalyzeFileContent(const std::string& rel_path,
                             const std::string& content,
                             const std::string& sibling_header);

}  // namespace gale::analyze

#endif  // GALE_TOOLS_ANALYZE_RULES_H_
