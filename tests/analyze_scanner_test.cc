// Pins the gale_analyze scanner contracts that the self-test fixtures
// cannot reach: ScanTree's pairing of a .cc with its header on disk, and
// byte-identical reports across thread counts; plus the allow() scope
// and unknown-rule contracts of AnalyzeFileSet. The rule-level behavior
// itself is pinned by `gale_analyze --self-test`.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/output.h"
#include "analyze/scanner.h"
#include "util/parallel.h"

namespace fs = std::filesystem;

namespace {

using gale::analyze::AnalyzeFileSet;
using gale::analyze::Finding;
using gale::analyze::ScanResult;
using gale::analyze::ScanTree;

// A scratch repo tree under the system temp dir, deleted on scope exit.
class ScratchTree {
 public:
  ScratchTree() {
    root_ = fs::temp_directory_path() /
            ("gale_analyze_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "util");
  }
  ~ScratchTree() { fs::remove_all(root_); }

  void Put(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::trunc);
    out << content;
  }

  std::string Root() const { return root_.string(); }

 private:
  fs::path root_;
};

// Rule-triggering content is assembled from string fragments so this
// test file itself stays clean under the analyzer's own scan.
std::string RandCall() {
  return std::string("int f() { return std::") + "rand" + "(); }\n";
}

TEST(AnalyzeScanner, SiblingHeaderTypesDecideTheCcFindings) {
  ScratchTree tree;
  // The .cc compares two members; whether that is a float-compare
  // violation depends entirely on the declared type in the header.
  tree.Put("src/util/pair.h", "struct P { long x_; long y_; };\n");
  tree.Put("src/util/pair.cc",
           "#include \"util/pair.h\"\n"
           "bool Same(const P& p) { return p.x_ == p.y_; }\n");
  EXPECT_TRUE(ScanTree(tree.Root(), {}).findings.empty());

  tree.Put("src/util/pair.h", "struct P { double x_; double y_; };\n");
  const ScanResult after = ScanTree(tree.Root(), {});
  EXPECT_EQ(after.files, 2u);
  ASSERT_EQ(after.findings.size(), 1u);
  EXPECT_EQ(after.findings[0].rule, "float-compare");
  EXPECT_EQ(after.findings[0].file, "src/util/pair.cc");
}

TEST(AnalyzeScanner, ReportIsByteIdenticalAcrossThreadCounts) {
  ScratchTree tree;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "src/util/f" + std::to_string(i) + ".cc";
    tree.Put(name, i % 3 == 0 ? RandCall()
                              : "int F" + std::to_string(i) +
                                    "() { return 0; }\n");
  }

  std::string text1;
  {
    gale::util::ScopedParallelism serial(1);
    text1 =
        gale::analyze::FormatText(ScanTree(tree.Root(), {}).findings);
  }
  std::string text4;
  {
    gale::util::ScopedParallelism wide(4);
    text4 =
        gale::analyze::FormatText(ScanTree(tree.Root(), {}).findings);
  }
  EXPECT_FALSE(text1.empty());
  EXPECT_EQ(text1, text4);
}

TEST(AnalyzeFileSetContract, AllowScopeCoversWholeNextStatement) {
  // One standalone allow above a statement that spans three lines: every
  // line of that statement is covered, the statement after it is not.
  const std::string banned = std::string("std::") + "rand" + "()";
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/util/scope.cc",
       "// gale-lint: allow(rng): fixture — scope check\n"
       "int a = " + banned + " +\n"
       "        " + banned + ";\n"
       "int b = " + banned + ";\n"}};
  const std::vector<Finding> findings = AnalyzeFileSet(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(AnalyzeFileSetContract, UnknownRuleInAllowIsItselfAFinding) {
  const std::vector<std::pair<std::string, std::string>> files = {
      {"src/util/typo.cc",
       "// gale-lint: allow(no-such-rule): justification text\n"
       "int x = 0;\n"}};
  const std::vector<Finding> findings = AnalyzeFileSet(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "allow-unknown-rule");
}

}  // namespace
