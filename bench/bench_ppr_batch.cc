// Batched-PPR throughput bench: 64 Row() misses, each a one-seed batch
// (one CSR traversal per seed per sweep), against one ComputeRows() call
// over the same seeds (one strided SpMM per sweep for the whole batch).
// Both run the engine's single power-iteration loop and produce
// bitwise-identical rows — see ppr_batch_equivalence_test — so this
// measures the traversal reuse alone.
//
// With GALE_BENCH_JSON_DIR set, per-(workload, threads) medians are also
// written to $GALE_BENCH_JSON_DIR/BENCH_ppr_batch.json for
// tools/bench_check.sh (see bench_common.h for the record format).
//
// Usage: bench_ppr_batch [--repeats N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "la/sparse_matrix.h"
#include "obs/stopwatch.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace gale {
namespace {

constexpr int kThreadCounts[] = {1, 4};

la::SparseMatrix RandomAdjacency(size_t n, size_t edges, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> edge_list;
  edge_list.reserve(edges);
  for (size_t e = 0; e < edges; ++e) {
    edge_list.emplace_back(rng.UniformInt(n), rng.UniformInt(n));
  }
  return la::SparseMatrix::NormalizedAdjacency(n, edge_list);
}

// Per-repeat wall times of `fn` at the current parallelism; the table
// reports the best (least-noise) run, the JSON baseline the median.
template <typename Fn>
std::vector<double> TimeRepeats(int repeats, Fn fn) {
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    obs::WallTimer timer;
    fn();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return seconds;
}

struct Workload {
  std::string name;
  std::function<void()> run;
};

}  // namespace
}  // namespace gale

int main(int argc, char** argv) {
  using namespace gale;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    }
  }

  // One query round's worth of PPR work: 64 distinct seeds on a 4k-node
  // graph (same shape as the "PPR batch 64 seeds" row in
  // bench_parallel_scaling, which now also runs the blocked path).
  la::SparseMatrix walk = RandomAdjacency(4000, 12000, 13);
  std::vector<size_t> seeds;
  for (size_t s = 0; s < 64; ++s) seeds.push_back((s * 61) % 4000);

  // Each repeat starts from a fresh engine so every row is a cold miss;
  // engine construction is O(n) vector setup, negligible next to the
  // power iterations it times.
  std::vector<Workload> workloads;
  workloads.push_back({"PPR per-seed 64 rows", [&] {
                         prop::PprEngine engine(&walk);
                         for (size_t v : seeds) (void)engine.Row(v);
                       }});
  // "b64" names the engine's batch width of 64 seeds.
  workloads.push_back({"PPR batched b64 64 rows", [&] {
                         prop::PprEngine engine(&walk);
                         engine.ComputeRows(seeds);
                       }});
  // The store's shapes: an incremental publish computes one row, a cold
  // rebuild's influence bake about ten, each a narrow batch.
  for (const size_t rows : {size_t{1}, size_t{10}}) {
    workloads.push_back(
        {"PPR batched b64 " + std::to_string(rows) +
             (rows == 1 ? " row" : " rows"),
         [&walk, &seeds, rows] {
           prop::PprEngine engine(&walk);
           engine.ComputeRows(std::span<const size_t>(seeds.data(), rows));
         }});
  }

  std::vector<std::string> header = {"workload"};
  for (int t : kThreadCounts) header.push_back(std::to_string(t) + "T (ms)");
  util::TablePrinter table(header);
  bench::BenchJsonWriter json("BENCH_ppr_batch.json");

  double per_seed_1t_ms = 0.0;
  double batched_1t_ms = 0.0;
  for (Workload& w : workloads) {
    std::vector<std::string> row = {w.name};
    for (int threads : kThreadCounts) {
      util::ScopedParallelism p(threads);
      const std::vector<double> seconds = TimeRepeats(repeats, w.run);
      const double ms =
          *std::min_element(seconds.begin(), seconds.end()) * 1e3;
      json.Record(w.name, threads, repeats, bench::Median(seconds) * 1e9);
      if (threads == 1 && w.name == "PPR per-seed 64 rows") {
        per_seed_1t_ms = ms;
      }
      if (threads == 1 && w.name == "PPR batched b64 64 rows") {
        batched_1t_ms = ms;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", ms);
      row.push_back(buf);
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf("batched-b64 speedup over per-seed at 1 thread: %.2fx\n",
              per_seed_1t_ms / batched_1t_ms);
  return 0;
}
