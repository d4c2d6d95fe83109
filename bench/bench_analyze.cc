// Wall-clock benchmark for the gale_analyze scan pipeline over the real
// repository tree: the median of full scans (every file read, tokenized
// and run through every pass), which gates tokenizer/rule-engine
// regressions.
//
// With GALE_BENCH_JSON_DIR set, medians are also written to
// $GALE_BENCH_JSON_DIR/BENCH_analyze.json for tools/bench_check.sh.
//
// Usage: bench_analyze [--repeats N] [--repo ROOT]   (default ROOT: cwd)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/scanner.h"
#include "bench_common.h"
#include "obs/stopwatch.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace gale;
  int repeats = 3;
  std::string repo = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--repo") == 0 && i + 1 < argc) {
      repo = argv[++i];
    } else {
      std::cerr << "usage: bench_analyze [--repeats N] [--repo ROOT]\n";
      return 2;
    }
  }

  // One untimed scan warms the page cache and the thread pool, and
  // reports the tree size up front.
  const analyze::ScanOptions options;
  const analyze::ScanResult warmup = analyze::ScanTree(repo, options);
  std::cout << "bench_analyze: " << warmup.files << " files under " << repo
            << ", " << warmup.findings.size() << " finding(s)\n\n";

  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    obs::WallTimer timer;
    analyze::ScanTree(repo, options);
    seconds.push_back(timer.ElapsedSeconds());
  }

  // The row keeps the name of its committed baseline.
  const char* const name = "BM_AnalyzeFullTree/cold";
  const double median_s = bench::Median(seconds);
  const double files_per_s = median_s > 0.0 ? warmup.files / median_s : 0.0;
  bench::BenchJsonWriter json("BENCH_analyze.json");
  json.Record(name, 1, repeats, median_s * 1e9);
  util::TablePrinter table({"workload", "median_ms", "files/s"});
  table.AddRow(
      {name, bench::Fmt(median_s * 1e3, 2), bench::Fmt(files_per_s, 0)});
  table.Print(std::cout);
  return 0;
}
