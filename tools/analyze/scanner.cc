#include "analyze/scanner.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "analyze/include_graph.h"
#include "analyze/rules.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace gale::analyze {
namespace {

namespace fs = std::filesystem;

constexpr const char kCacheHeader[] = "gale-analyze-cache v1";

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    if (s[i] == 't') {
      out.push_back('\t');
    } else if (s[i] == 'n') {
      out.push_back('\n');
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
  return fields;
}

struct CacheEntry {
  uint64_t size = 0;
  int64_t mtime = 0;
  uint64_t hash = 0;
  std::string sibling;       // rel path of the paired header, or ""
  uint64_t sibling_hash = 0;
  FileFacts facts;
};

using CacheMap = std::map<std::string, CacheEntry>;

// Parses entry lines; a malformed numeric field throws (stoull family).
void ParseCacheLines(std::istream& in, CacheMap& cache) {
  CacheEntry* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = SplitTabs(line);
    if (f.empty()) continue;
    if (f[0] == "F" && f.size() == 7) {
      CacheEntry entry;
      entry.size = std::stoull(f[2]);
      entry.mtime = std::stoll(f[3]);
      entry.hash = std::stoull(f[4]);
      entry.sibling = f[5] == "-" ? "" : f[5];
      entry.sibling_hash = std::stoull(f[6]);
      current = &cache.emplace(f[1], std::move(entry)).first->second;
    } else if (f[0] == "I" && f.size() == 5 && current != nullptr) {
      IncludeDirective inc;
      inc.line = std::stoi(f[1]);
      inc.angled = f[2] == "1";
      inc.target = Unescape(f[3]);
      current->facts.includes.push_back(inc);
      std::set<std::string> allows;
      if (f[4] != "-") {
        std::istringstream split(f[4]);
        std::string rule;
        while (std::getline(split, rule, ',')) {
          if (!rule.empty()) allows.insert(rule);
        }
      }
      current->facts.include_allows.push_back(std::move(allows));
    } else if (f[0] == "D" && f.size() == 4 && current != nullptr) {
      current->facts.findings.push_back(
          {"", std::stoi(f[1]), f[2], Unescape(f[3])});
    }
  }
}

CacheMap LoadCache(const std::string& path) {
  CacheMap cache;
  std::ifstream in(path);
  if (!in) return cache;
  std::string line;
  if (!std::getline(in, line) || line != kCacheHeader) return cache;
  // Any corruption (truncated write, manual edit) discards the whole
  // cache and the scan runs cold — never a wrong reuse.
  try {
    ParseCacheLines(in, cache);
  } catch (const std::exception&) {
    return CacheMap{};
  }
  // Finding file fields are implied by the entry key; restore them.
  for (auto& [rel, entry] : cache) {
    for (Finding& finding : entry.facts.findings) finding.file = rel;
  }
  return cache;
}

void SaveCache(const std::string& path, const std::vector<std::string>& rels,
               const std::vector<CacheEntry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;  // unwritable cache degrades to a cold scan next run
  out << kCacheHeader << "\n";
  for (size_t i = 0; i < rels.size(); ++i) {
    const CacheEntry& e = entries[i];
    out << "F\t" << rels[i] << "\t" << e.size << "\t" << e.mtime << "\t"
        << e.hash << "\t" << (e.sibling.empty() ? "-" : e.sibling) << "\t"
        << e.sibling_hash << "\n";
    for (size_t k = 0; k < e.facts.includes.size(); ++k) {
      const IncludeDirective& inc = e.facts.includes[k];
      std::string allows = "-";
      if (k < e.facts.include_allows.size() &&
          !e.facts.include_allows[k].empty()) {
        allows.clear();
        for (const std::string& rule : e.facts.include_allows[k]) {
          if (!allows.empty()) allows += ",";
          allows += rule;
        }
      }
      out << "I\t" << inc.line << "\t" << (inc.angled ? 1 : 0) << "\t"
          << Escape(inc.target) << "\t" << allows << "\n";
    }
    for (const Finding& finding : e.facts.findings) {
      out << "D\t" << finding.line << "\t" << finding.rule << "\t"
          << Escape(finding.message) << "\n";
    }
  }
}

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

// Per-file working state for the parallel phases. Each shard touches only
// its own index range, so all writes are disjoint.
struct FileState {
  fs::path abs;
  std::string rel;
  uint64_t size = 0;
  int64_t mtime = 0;
  uint64_t hash = 0;
  bool content_read = false;
  std::string content;
  size_t sibling = kNone;  // index of the paired .h, or kNone
  bool cache_valid = false;
  bool retokenized = false;
  FileFacts facts;

  static constexpr size_t kNone = static_cast<size_t>(-1);
};

// Phase A shard kernel: establish content identity. Trust size+mtime; on
// any difference read and hash.
void IdentityShard(std::vector<FileState>* files, const CacheMap& cache,
                   size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    FileState& f = (*files)[i];
    const auto it = cache.find(f.rel);
    if (it != cache.end() && it->second.size == f.size &&
        it->second.mtime == f.mtime) {
      f.hash = it->second.hash;
      continue;
    }
    f.content = ReadFileOrEmpty(f.abs);
    f.content_read = true;
    f.hash = util::Fnv1aHash(f.content);
  }
}

// Phase B shard kernel: reuse cached facts when the content identity (own
// hash + paired-header hash) matches; otherwise tokenize and analyze.
void AnalyzeShard(std::vector<FileState>* files, const CacheMap& cache,
                  size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    FileState& f = (*files)[i];
    const uint64_t sibling_hash =
        f.sibling == FileState::kNone ? 0 : (*files)[f.sibling].hash;
    const std::string sibling_rel =
        f.sibling == FileState::kNone ? "" : (*files)[f.sibling].rel;
    const auto it = cache.find(f.rel);
    if (it != cache.end() && it->second.hash == f.hash &&
        it->second.sibling == sibling_rel &&
        it->second.sibling_hash == sibling_hash) {
      f.facts = it->second.facts;
      f.cache_valid = true;
      continue;
    }
    if (!f.content_read) {
      f.content = ReadFileOrEmpty(f.abs);
      f.content_read = true;
    }
    std::string sibling_content;
    if (f.sibling != FileState::kNone) {
      const FileState& sib = (*files)[f.sibling];
      // The sibling slot belongs to another shard; read a private copy
      // when phase A skipped it.
      sibling_content =
          sib.content_read ? sib.content : ReadFileOrEmpty(sib.abs);
    }
    f.facts = AnalyzeFileContent(f.rel, f.content, sibling_content);
    f.retokenized = true;
  }
}

std::vector<Finding> FilterAndSort(std::vector<Finding> findings,
                                   const std::set<std::string>& only_rules) {
  if (!only_rules.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return only_rules.count(f.rule) == 0;
                                  }),
                   findings.end());
  }
  std::sort(findings.begin(), findings.end());
  return findings;
}

}  // namespace

ScanResult ScanTree(const std::string& root, const ScanOptions& options) {
  static const char* kDirs[] = {"src", "tests", "bench", "tools", "examples"};
  const fs::path root_path(root);

  std::vector<FileState> files;
  for (const char* dir : kDirs) {
    const fs::path base = root_path / dir;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !HasScannedExtension(entry.path())) {
        continue;
      }
      FileState f;
      f.abs = entry.path();
      f.rel = fs::relative(entry.path(), root_path).generic_string();
      f.size = static_cast<uint64_t>(fs::file_size(entry.path(), ec));
      f.mtime = static_cast<int64_t>(
          fs::last_write_time(entry.path(), ec).time_since_epoch().count());
      files.push_back(std::move(f));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileState& a, const FileState& b) {
              return a.rel < b.rel;
            });

  std::map<std::string, size_t> index;
  for (size_t i = 0; i < files.size(); ++i) index[files[i].rel] = i;
  for (FileState& f : files) {
    const std::string ext = f.abs.extension().string();
    if (ext != ".cc" && ext != ".cpp") continue;
    fs::path header = f.abs;
    header.replace_extension(".h");
    const std::string header_rel =
        fs::relative(header, root_path).generic_string();
    const auto it = index.find(header_rel);
    if (it != index.end()) f.sibling = it->second;
  }

  const CacheMap cache = options.cache_path.empty()
                             ? CacheMap{}
                             : LoadCache(options.cache_path);

  const size_t n = files.size();
  util::ParallelForShards(0, n, 1,
                          [&](size_t, size_t begin, size_t end) {
                            IdentityShard(&files, cache, begin, end);
                          });
  util::ParallelForShards(0, n, 1,
                          [&](size_t, size_t begin, size_t end) {
                            AnalyzeShard(&files, cache, begin, end);
                          });

  ScanResult result;
  result.stats.files = n;
  std::vector<Finding> findings;
  std::vector<IncludeGraphInput> graph;
  graph.reserve(n);
  for (const FileState& f : files) {
    result.stats.retokenized += f.retokenized ? 1 : 0;
    result.stats.cache_hits += f.cache_valid ? 1 : 0;
    findings.insert(findings.end(), f.facts.findings.begin(),
                    f.facts.findings.end());
    graph.push_back({f.rel, f.facts.includes, f.facts.include_allows});
  }
  std::vector<Finding> cross = IncludeGraphPass(graph);
  findings.insert(findings.end(), cross.begin(), cross.end());

  if (!options.cache_path.empty()) {
    std::vector<std::string> rels;
    std::vector<CacheEntry> entries;
    rels.reserve(n);
    entries.reserve(n);
    for (const FileState& f : files) {
      CacheEntry e;
      e.size = f.size;
      e.mtime = f.mtime;
      e.hash = f.hash;
      e.sibling = f.sibling == FileState::kNone ? "" : files[f.sibling].rel;
      e.sibling_hash =
          f.sibling == FileState::kNone ? 0 : files[f.sibling].hash;
      e.facts = f.facts;
      rels.push_back(f.rel);
      entries.push_back(std::move(e));
    }
    SaveCache(options.cache_path, rels, entries);
  }

  result.findings = FilterAndSort(std::move(findings), options.only_rules);
  return result;
}

std::vector<Finding> AnalyzeFileSet(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < files.size(); ++i) index[files[i].first] = i;

  std::vector<Finding> findings;
  std::vector<IncludeGraphInput> graph;
  for (const auto& [path, content] : files) {
    std::string sibling_content;
    const size_t dot = path.rfind('.');
    if (dot != std::string::npos &&
        (path.substr(dot) == ".cc" || path.substr(dot) == ".cpp")) {
      const auto it = index.find(path.substr(0, dot) + ".h");
      if (it != index.end()) sibling_content = files[it->second].second;
    }
    FileFacts facts = AnalyzeFileContent(path, content, sibling_content);
    findings.insert(findings.end(), facts.findings.begin(),
                    facts.findings.end());
    graph.push_back(
        {path, std::move(facts.includes), std::move(facts.include_allows)});
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
