// Serving-path throughput bench: batched scoring against single-request
// scoring. The batch-N workload submits N-node requests to a batcher
// configured with max_batch = N, from 1 or 4 caller threads; each cell is
// the wall time for every caller to score kNodesPerCaller nodes. The
// batcher owns no thread: a caller that finds no batch running leads one
// on its own thread. So:
//  - 1 caller: the caller leads every batch itself. Batch 1 is the serial
//    one-node-per-request reference: per node, the queue bookkeeping and
//    a 1-row forward, with no thread hand-off (a request of max_batch
//    nodes cuts its batch at once, without lingering). Batch 64 spreads
//    that per-request cost over one fused 64-row forward.
//  - 4 callers: requests queue behind the running leader and coalesce
//    into its next batch; the leader role passes between callers, and
//    every waiting caller pays a wake-up per batch it waits on.
// The batcher scores each node at most once and answers repeats from its
// score table. Every timed pass therefore runs on a fresh batcher, and
// within a pass every caller asks for different nodes: the callers'
// streams partition the kNodes nodes, so the six batch rows measure
// coalescing plus the forward on a cold table. The "warm table" row
// replays batch 8's stream on a batcher that has already scored it
// (untimed), so every request is answered from the table: it measures
// the request path with no forward at all (its cell is one replay,
// averaged over kWarmPasses back-to-back replays).
// Cold workloads with the same caller count score the same nodes, and
// scores are bitwise identical in every configuration — serve_replay_test
// pins that — so the rows differ only in how the per-request and
// per-forward overheads amortize.
//
// The acceptance bar: batch-64 throughput >= 2x the batch-1
// single-request reference at 4 caller threads. The committed medians
// (GALE_NUM_THREADS=1, shared 4-vCPU host under load) give 6.5x. The
// 4-caller rows pay futex wake-ups and swing with host load (batch 1 /
// 4 callers has read 9.6 ms on a quiet host and 53 ms under load), so
// compare them only within one session.
//
// With GALE_BENCH_JSON_DIR set, per-(workload, callers) medians are also
// written to $GALE_BENCH_JSON_DIR/BENCH_serve.json for
// tools/bench_check.sh (see bench_common.h for the record format). The
// caller count is part of the record name ("serve batch 64 / 4 callers");
// `threads` is the library pool's util::Parallelism(), as in every other
// bench.
//
// Usage: bench_serve [--repeats N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/sgan.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "obs/stopwatch.h"
#include "serve/batcher.h"
#include "serve/snapshot.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace gale {
namespace {

constexpr int kCallerCounts[] = {1, 4};
// Every caller scores this many nodes per timed pass regardless of the
// request batch size, so the workloads are directly comparable and each
// pass averages over enough requests to damp scheduling jitter.
constexpr size_t kNodesPerCaller = 2048;
// One node per lookup of a 4-caller pass, so no pass repeats a node.
constexpr size_t kNodes = 4 * kNodesPerCaller;
constexpr size_t kDim = 32;
// Odd, so lookup k -> node (k * kNodeStride) % kNodes is a bijection: the
// stream visits every node once, in an order with no locality.
constexpr size_t kNodeStride = 89;
constexpr int kWarmPasses = 32;

serve::ScoringSnapshot MakeSnapshot() {
  la::Matrix x(kNodes, kDim);
  util::Rng rng(5);
  for (size_t r = 0; r < kNodes; ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      *(x.RowPtr(r) + c) = rng.Uniform(-1.0, 1.0);
    }
  }
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < kNodes; ++v) {
    edges.emplace_back(v, (v + 1) % kNodes);
    edges.emplace_back(v, (v + 17) % kNodes);
    edges.emplace_back(v, (v + 131) % kNodes);
  }
  std::vector<int> labels(kNodes, core::kUnlabeled);
  for (size_t v = 0; v < kNodes; v += 97) labels[v] = core::kLabelError;

  core::Sgan sgan(kDim, core::SganConfig{.seed = 5});
  auto snap = serve::ScoringSnapshot::FromParts(
      sgan.ExportDiscriminator(), std::move(x),
      la::SparseMatrix::NormalizedAdjacency(kNodes, edges),
      std::move(labels));
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot build failed: %s\n",
                 snap.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(snap).value();
}

// `callers` threads each score their kNodesPerCaller nodes in
// `batch`-node requests through `batcher`, `passes` times over. Caller t
// owns lookups [t * kNodesPerCaller, (t + 1) * kNodesPerCaller) of the
// stream.
void RunCallers(serve::RequestBatcher& batcher, size_t batch, int callers,
                int passes) {
  std::vector<std::thread> threads;
  for (int t = 0; t < callers; ++t) {
    threads.emplace_back([&, t] {
      serve::ScoreRequest request;
      const size_t requests = kNodesPerCaller / batch;
      for (int pass = 0; pass < passes; ++pass) {
        for (size_t j = 0; j < requests; ++j) {
          request.node_ids.clear();
          const size_t first =
              static_cast<size_t>(t) * kNodesPerCaller + j * batch;
          for (size_t k = first; k < first + batch; ++k) {
            request.node_ids.push_back(k * kNodeStride % kNodes);
          }
          auto scores = batcher.Score(request);
          if (!scores.ok()) {
            std::fprintf(stderr, "Score failed: %s\n",
                         scores.status().ToString().c_str());
            std::exit(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// One timed pass through a fresh batcher with max_batch = batch. With
// `warm`, the same callers first score the same stream untimed, so the
// timed pass is answered from the score table; a table pass takes tens
// of microseconds, so it is timed over kWarmPasses replays and averaged.
// Batcher construction (scorer warmup) and Stop() happen outside the
// timer.
double TimeServe(const serve::ScoringSnapshot& snap, size_t batch,
                 int callers, bool warm) {
  serve::ServeOptions options;
  options.max_batch = batch;
  serve::RequestBatcher batcher(&snap, options);
  if (warm) RunCallers(batcher, batch, callers, 1);

  const int passes = warm ? kWarmPasses : 1;
  obs::WallTimer timer;
  RunCallers(batcher, batch, callers, passes);
  const double seconds = timer.ElapsedSeconds() / passes;
  batcher.Stop();
  return seconds;
}

}  // namespace
}  // namespace gale

int main(int argc, char** argv) {
  using namespace gale;
  int repeats = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    }
  }

  const serve::ScoringSnapshot snap = MakeSnapshot();

  std::vector<std::string> header = {"workload"};
  for (int c : kCallerCounts) {
    header.push_back(std::to_string(c) + " callers (ms)");
  }
  util::TablePrinter table(header);
  bench::BenchJsonWriter json("BENCH_serve.json");

  struct Workload {
    size_t max_batch;
    bool warm;
  };
  double batch1_4c_ms = 0.0;
  double batch64_4c_ms = 0.0;
  for (const Workload w : {Workload{1, false}, Workload{8, false},
                           Workload{64, false}, Workload{8, true}}) {
    const std::string name = "serve batch " + std::to_string(w.max_batch) +
                             (w.warm ? " warm table" : "");
    std::vector<std::string> row = {name};
    for (int callers : kCallerCounts) {
      std::vector<double> seconds;
      seconds.reserve(repeats);
      for (int r = 0; r < repeats; ++r) {
        seconds.push_back(TimeServe(snap, w.max_batch, callers, w.warm));
      }
      const double ms =
          *std::min_element(seconds.begin(), seconds.end()) * 1e3;
      json.Record(name + " / " + std::to_string(callers) +
                      (callers == 1 ? " caller" : " callers"),
                  util::Parallelism(), repeats,
                  bench::Median(seconds) * 1e9);
      if (!w.warm && callers == 4 && w.max_batch == 1) batch1_4c_ms = ms;
      if (!w.warm && callers == 4 && w.max_batch == 64) batch64_4c_ms = ms;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", ms);
      row.push_back(buf);
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf(
      "batch-64 throughput over the batch-1 reference at 4 callers: %.2fx\n",
      batch1_4c_ms / batch64_4c_ms);
  return 0;
}
