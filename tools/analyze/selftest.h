// Embedded self-test: for every rule a known-bad fixture (must trigger
// exactly N times) and a known-good twin (must not trigger), plus
// suppression-scope and annotation-hygiene cases, plus multi-file
// fixtures for the cross-TU include-graph rules. Registered with ctest
// as gale_analyze_selftest.

#ifndef GALE_TOOLS_ANALYZE_SELFTEST_H_
#define GALE_TOOLS_ANALYZE_SELFTEST_H_

#include <iosfwd>

namespace gale::analyze {

// Runs every fixture, reporting to `out`. Returns the number of failing
// fixtures (0 = pass).
int RunSelfTest(std::ostream& out);

}  // namespace gale::analyze

#endif  // GALE_TOOLS_ANALYZE_SELFTEST_H_
