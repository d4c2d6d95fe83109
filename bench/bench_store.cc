// Versioned-store publish bench: full (cold) publish against the
// incremental path. The "full" workload creates a fresh store per rep and
// pays the whole publish pipeline — feature encode (a replay of the
// encode plans the untimed Create built), walk renormalization, a cold
// PPR pass over every error seed, snapshot assembly. The "incremental"
// workload keeps one warm store and per rep applies a small
// attribute+label batch then publishes: the walk and every untouched PPR
// row carry over, so only the handful of dirtied seeds power-iterate.
// Both paths produce bitwise-identical snapshots for the same graph state
// (store_publish_test pins it) — the columns differ only in how much work
// the epoch actually re-does.
//
// The acceptance bar (ISSUE 10): incremental publish beats the full
// rebuild on the label/attribute workload.
//
// With GALE_BENCH_JSON_DIR set, per-(workload, threads) medians are also
// written to $GALE_BENCH_JSON_DIR/BENCH_store.json for
// tools/bench_check.sh.
//
// Usage: bench_store [--repeats N]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sgan.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "obs/stopwatch.h"
#include "store/store.h"
#include "util/parallel.h"
#include "util/table_printer.h"

namespace gale {
namespace {

constexpr size_t kNodes = 1200;
constexpr int kThreadCounts[] = {1, 4};

graph::AttributedGraph MakeBaseGraph() {
  graph::AttributedGraph g;
  const size_t film = g.AddNodeType(
      "film", {{"name", graph::ValueKind::kText},
               {"year", graph::ValueKind::kNumeric}});
  g.AddEdgeType("subsequent");
  for (size_t v = 0; v < kNodes; ++v) {
    g.AddNode(film,
              {graph::AttributeValue::Text("film-" + std::to_string(v)),
               graph::AttributeValue::Number(
                   1950.0 + static_cast<double>(v % 75))});
  }
  for (size_t v = 0; v < kNodes; ++v) {
    g.AddEdge(v, (v + 1) % kNodes, 0);
    g.AddEdge(v, (v + 37) % kNodes, 0);
  }
  g.Finalize();
  return g;
}

std::vector<int> MakeLabels() {
  std::vector<int> labels(kNodes, core::kUnlabeled);
  for (size_t v = 0; v < kNodes; v += 31) labels[v] = core::kLabelError;
  return labels;
}

std::unique_ptr<store::VersionedGraphStore> MakeStore(
    const graph::AttributedGraph& base) {
  auto made = store::VersionedGraphStore::Create(base.Clone(), MakeLabels());
  if (!made.ok()) {
    std::fprintf(stderr, "store create failed: %s\n",
                 made.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(made).value();
}

// The per-epoch mutation stream: a few attribute touch-ups plus a label
// toggle pair that retires one error seed and mints another, so the seed
// count — and thus the full path's PPR bill — stays constant across reps.
store::DeltaBatch MakeEpochBatch(int rep) {
  const size_t a = 31 * static_cast<size_t>(1 + (rep % 2));  // seeds 31/62
  const size_t b = 31 * static_cast<size_t>(2 - (rep % 2));
  store::DeltaBatch batch;
  for (size_t i = 0; i < 4; ++i) {
    const size_t node = (static_cast<size_t>(rep) * 211 + i * 97) % kNodes;
    batch.push_back(store::Delta::SetAttribute(
        node, 0,
        graph::AttributeValue::Text("film-" + std::to_string(node) + "-r" +
                                    std::to_string(rep))));
  }
  batch.push_back(store::Delta::SetLabel(a, core::kLabelCorrect));
  batch.push_back(store::Delta::SetLabel(b, core::kLabelError));
  return batch;
}

// One timed full publish: the store is fresh (cold walk, cold PPR), so
// this is the from-scratch rebuild cost of the current state.
double TimeFullPublish(const graph::AttributedGraph& base,
                       const core::DiscriminatorSnapshot& disc) {
  auto fresh = MakeStore(base);
  obs::WallTimer timer;
  auto published = fresh->PublishSnapshot(disc);
  const double seconds = timer.ElapsedSeconds();
  if (!published.ok()) {
    std::fprintf(stderr, "full publish failed: %s\n",
                 published.status().ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

// One timed incremental epoch: apply a small batch to the warm store and
// publish. The walk and all but ~2 PPR rows are reused.
double TimeIncrementalPublish(store::VersionedGraphStore* warm,
                              const core::DiscriminatorSnapshot& disc,
                              int rep) {
  obs::WallTimer timer;
  const util::Status applied = warm->ApplyBatch(MakeEpochBatch(rep));
  if (!applied.ok()) {
    std::fprintf(stderr, "apply failed: %s\n", applied.ToString().c_str());
    std::exit(1);
  }
  auto published = warm->PublishSnapshot(disc);
  const double seconds = timer.ElapsedSeconds();
  if (!published.ok()) {
    std::fprintf(stderr, "incremental publish failed: %s\n",
                 published.status().ToString().c_str());
    std::exit(1);
  }
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

  const graph::AttributedGraph base = MakeBaseGraph();
  const core::DiscriminatorSnapshot disc = [&base] {
    const graph::FeatureEncoder encoder;
    core::Sgan sgan(encoder.RawDims(base), core::SganConfig{.seed = 7});
    return sgan.ExportDiscriminator();
  }();

  std::vector<std::string> header = {"workload"};
  for (int t : kThreadCounts) {
    header.push_back(std::to_string(t) + " threads (ms)");
  }
  util::TablePrinter table(header);
  bench::BenchJsonWriter json("BENCH_store.json");

  double full_4t_ms = 0.0;
  double incremental_4t_ms = 0.0;
  for (const bool incremental : {false, true}) {
    const std::string name =
        incremental ? "store publish incremental" : "store publish full";
    std::vector<std::string> row = {name};
    for (int threads : kThreadCounts) {
      util::ScopedParallelism parallelism(threads);
      std::vector<double> seconds;
      seconds.reserve(repeats);
      if (incremental) {
        auto warm = MakeStore(base);
        // Warm the walk and the PPR cache outside the timer: rep 0 of the
        // steady state starts from a published store, not a cold one.
        if (!warm->PublishSnapshot(disc).ok()) return 1;
        for (int r = 0; r < repeats; ++r) {
          seconds.push_back(TimeIncrementalPublish(warm.get(), disc, r));
        }
      } else {
        for (int r = 0; r < repeats; ++r) {
          seconds.push_back(TimeFullPublish(base, disc));
        }
      }
      const double ms =
          *std::min_element(seconds.begin(), seconds.end()) * 1e3;
      json.Record(name, threads, repeats, bench::Median(seconds) * 1e9);
      if (threads == 4) {
        (incremental ? incremental_4t_ms : full_4t_ms) = ms;
      }
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", ms);
      row.push_back(buf);
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf("incremental publish over the full rebuild at 4 threads: %.2fx\n",
              full_4t_ms / incremental_4t_ms);
  return 0;
}
