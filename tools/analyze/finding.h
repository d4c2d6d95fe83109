#ifndef GALE_TOOLS_ANALYZE_FINDING_H_
#define GALE_TOOLS_ANALYZE_FINDING_H_

#include <string>
#include <tuple>

namespace gale::analyze {

// One rule violation. Findings are value objects; the scanner orders the
// final report by (file, line, rule, message) so output is deterministic
// regardless of thread count.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

inline bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

inline bool operator==(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) ==
         std::tie(b.file, b.line, b.rule, b.message);
}

}  // namespace gale::analyze

#endif  // GALE_TOOLS_ANALYZE_FINDING_H_
