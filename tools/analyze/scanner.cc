#include "analyze/scanner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analyze/include_graph.h"
#include "analyze/rules.h"
#include "util/parallel.h"

namespace gale::analyze {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool HasScannedExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

ScanResult ScanTree(const std::string& root, const ScanOptions& options) {
  static const char* kDirs[] = {"src", "tests", "bench", "tools", "examples"};
  const fs::path root_path(root);

  std::vector<std::pair<std::string, fs::path>> paths;  // (rel, abs)
  for (const char* dir : kDirs) {
    const fs::path base = root_path / dir;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !HasScannedExtension(entry.path())) {
        continue;
      }
      paths.emplace_back(
          fs::relative(entry.path(), root_path).generic_string(),
          entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<std::pair<std::string, std::string>> files;
  files.reserve(paths.size());
  for (const auto& [rel, abs] : paths) {
    files.emplace_back(rel, ReadFileOrEmpty(abs));
  }

  ScanResult result;
  result.files = files.size();
  result.findings = AnalyzeFileSet(files);
  if (!options.only_rules.empty()) {
    std::erase_if(result.findings, [&](const Finding& f) {
      return options.only_rules.count(f.rule) == 0;
    });
  }
  return result;
}

std::vector<Finding> AnalyzeFileSet(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::map<std::string, size_t> index;  // path -> slot, for header pairing
  for (size_t i = 0; i < files.size(); ++i) index[files[i].first] = i;

  static const std::string kNoSibling;
  std::vector<FileFacts> facts(files.size());
  util::ParallelFor(0, files.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& [path, content] = files[i];
      auto sibling = index.end();
      const size_t dot = path.rfind('.');
      if (dot != std::string::npos &&
          (path.substr(dot) == ".cc" || path.substr(dot) == ".cpp")) {
        sibling = index.find(path.substr(0, dot) + ".h");
      }
      facts[i] = AnalyzeFileContent(
          path, content,
          sibling == index.end() ? kNoSibling : files[sibling->second].second);
    }
  });

  std::vector<Finding> findings;
  std::vector<IncludeGraphInput> graph;
  graph.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    findings.insert(findings.end(), facts[i].findings.begin(),
                    facts[i].findings.end());
    graph.push_back({files[i].first, std::move(facts[i].includes),
                     std::move(facts[i].include_allows)});
  }
  std::sort(graph.begin(), graph.end(),
            [](const IncludeGraphInput& a, const IncludeGraphInput& b) {
              return a.path < b.path;
            });
  std::vector<Finding> cross = IncludeGraphPass(graph);
  findings.insert(findings.end(), cross.begin(), cross.end());
  std::sort(findings.begin(), findings.end());
  return findings;
}

}  // namespace gale::analyze
