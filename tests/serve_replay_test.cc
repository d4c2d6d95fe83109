// RequestBatcher replay harness: concurrent callers at several batch
// sizes and arrival orders, answered by batches and from the score table,
// memcmp'd against a serial one-node-at-a-time reference. Runs under
// GALE_OBS_LOGICAL_TIME=1 (ctest sets it), and the _mt4 ctest leg re-runs
// the whole file with GALE_NUM_THREADS=4 — per-node scores must be
// bitwise identical in every configuration.

#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sgan.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "serve/snapshot.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"

namespace gale::serve {
namespace {

constexpr size_t kNodes = 120;
constexpr size_t kDim = 5;

ScoringSnapshot MakeSnapshot(size_t num_nodes = kNodes) {
  la::Matrix x(num_nodes, kDim);
  util::Rng rng(77);
  for (size_t r = 0; r < num_nodes; ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      *(x.RowPtr(r) + c) = rng.Uniform(-1.0, 1.0);
    }
  }
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < num_nodes; ++v) {
    edges.emplace_back(v, (v + 1) % num_nodes);
    edges.emplace_back(v, (v + 11) % num_nodes);
  }
  std::vector<int> labels(num_nodes, core::kUnlabeled);
  labels[2] = core::kLabelError;
  labels[50] = core::kLabelError;
  labels[9] = core::kLabelCorrect;

  core::SganConfig config;
  config.hidden_dim = 9;
  config.embedding_dim = 6;
  config.seed = 99;
  core::Sgan sgan(kDim, config);

  auto snap = ScoringSnapshot::FromParts(
      sgan.ExportDiscriminator(), std::move(x),
      la::SparseMatrix::NormalizedAdjacency(num_nodes, edges),
      std::move(labels));
  EXPECT_TRUE(snap.ok()) << snap.status();
  return std::move(snap).value();
}

// The serial reference: every node scored alone, one at a time.
std::vector<NodeScore> SerialReference(const ScoringSnapshot& snap) {
  SnapshotScorer scorer(&snap, 1);
  std::vector<NodeScore> ref(snap.num_nodes());
  for (size_t v = 0; v < snap.num_nodes(); ++v) {
    std::vector<size_t> one{v};
    scorer.ScoreInto(one, &ref[v]);
  }
  return ref;
}

// The request mix one caller thread submits: overlapping windows (so
// concurrent requests share nodes and exercise the dedup), plus repeats
// inside a single request.
std::vector<std::vector<size_t>> RequestsForThread(size_t thread,
                                                   bool reversed) {
  std::vector<std::vector<size_t>> requests;
  for (size_t j = 0; j < 6; ++j) {
    std::vector<size_t> ids;
    const size_t base = (thread * 37 + j * 13) % kNodes;
    for (size_t i = 0; i < 9; ++i) ids.push_back((base + i * 5) % kNodes);
    ids.push_back(ids.front());  // in-request duplicate
    requests.push_back(std::move(ids));
  }
  if (reversed) {
    std::reverse(requests.begin(), requests.end());
    for (auto& ids : requests) std::reverse(ids.begin(), ids.end());
  }
  return requests;
}

// Four callers each send RequestsForThread(t, reversed) through one
// batcher. With `repeat`, each then sends the same requests again in the
// other order: its own first pass scored their nodes, so the second pass
// is answered from the score table while the first mixes cold nodes with
// nodes the other callers scored.
void RunReplay(const ScoringSnapshot& snap,
               const std::vector<NodeScore>& ref, size_t max_batch,
               bool reversed, bool repeat = false) {
  ServeOptions options;
  options.max_batch = max_batch;
  options.max_wait_micros = 50;
  RequestBatcher batcher(&snap, options);

  constexpr size_t kCallers = 4;
  const size_t passes = repeat ? 2 : 1;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t pass = 0; pass < passes; ++pass) {
        for (const std::vector<size_t>& ids :
             RequestsForThread(t, reversed != (pass == 1))) {
          ScoreRequest request;
          request.node_ids = ids;
          auto scores = batcher.Score(request);
          if (!scores.ok() || scores.value().size() != ids.size()) {
            mismatches.fetch_add(1000);
            continue;
          }
          for (size_t i = 0; i < ids.size(); ++i) {
            if (std::memcmp(&scores.value()[i], &ref[ids[i]],
                            sizeof(NodeScore)) != 0) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  batcher.Stop();
  EXPECT_EQ(mismatches.load(), 0) << "max_batch=" << max_batch
                                  << " reversed=" << reversed
                                  << " repeat=" << repeat;

  const obs::Report report = batcher.ObsReport();
  const uint64_t requests = kCallers * 6 * passes;
  EXPECT_EQ(report.CounterOr("gale.serve.requests"), requests);
  EXPECT_EQ(report.CounterOr("gale.serve.nodes"), requests * 10);
  EXPECT_EQ(report.CounterOr("gale.serve.rejected"), 0u);
  // The first request finds an empty table; a request the table does not
  // answer runs in one batch, possibly with others.
  const uint64_t hits = report.CounterOr("gale.serve.table_hits");
  EXPECT_LT(hits, requests);
  if (repeat) {
    EXPECT_GE(hits, kCallers * 6) << "every second pass is a hit";
  }
  const auto hist = report.histograms.find("gale.serve.batch_size");
  ASSERT_NE(hist, report.histograms.end());
  EXPECT_GE(hist->second.count, 1u);
  EXPECT_LE(hist->second.count, requests - hits);
}

TEST(ServeReplayTest, BatchedScoresMatchSerialReference) {
  ScoringSnapshot snap = MakeSnapshot();
  const std::vector<NodeScore> ref = SerialReference(snap);
  for (size_t max_batch : {size_t{1}, size_t{8}, size_t{64}}) {
    for (bool reversed : {false, true}) {
      RunReplay(snap, ref, max_batch, reversed);
    }
  }
}

TEST(ServeReplayTest, LeaderHandOverServesEveryQueuedCaller) {
  // max_batch = 1 cuts one request per batch (a multi-node request is
  // taken alone and chunked), so with eight callers the queue holds more
  // than one batch and the leader role passes between callers: a leader
  // returns once its own request is done, and a woken caller whose
  // request is still queued leads the next batch. Every call must return
  // the serial reference's bytes, and every caller must return (a caller
  // stranded behind a vanished leader hangs the join below). Each round
  // runs on a fresh batcher, so its score table starts empty and every
  // round hands the leader role over again.
  ScoringSnapshot snap = MakeSnapshot();
  const std::vector<NodeScore> ref = SerialReference(snap);
  ServeOptions options;
  options.max_batch = 1;
  options.max_wait_micros = 50;

  constexpr size_t kCallers = 8;
  constexpr size_t kRounds = 4;
  for (size_t round = 0; round < kRounds; ++round) {
    RequestBatcher batcher(&snap, options);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (size_t t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (const std::vector<size_t>& ids :
             RequestsForThread(t, round % 2 == 1)) {
          ScoreRequest request;
          request.node_ids = ids;
          auto scores = batcher.Score(request);
          if (!scores.ok() || scores.value().size() != ids.size()) {
            mismatches.fetch_add(1000);
            continue;
          }
          for (size_t i = 0; i < ids.size(); ++i) {
            if (std::memcmp(&scores.value()[i], &ref[ids[i]],
                            sizeof(NodeScore)) != 0) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& c : callers) c.join();
    batcher.Stop();
    EXPECT_EQ(mismatches.load(), 0) << "round " << round;

    const obs::Report report = batcher.ObsReport();
    const uint64_t requests = kCallers * 6;
    EXPECT_EQ(report.CounterOr("gale.serve.requests"), requests);
    // A request the table answers runs no batch; every other one runs
    // exactly one, since it brings at least one unscored node.
    const uint64_t hits = report.CounterOr("gale.serve.table_hits");
    EXPECT_LT(hits, requests) << "round " << round;
    const auto hist = report.histograms.find("gale.serve.batch_size");
    ASSERT_NE(hist, report.histograms.end());
    EXPECT_EQ(hist->second.count, requests - hits)
        << "one batch per queued request, round " << round;
  }
}

TEST(ServeReplayTest, TableAnswersRepeatRequestsWithoutABatch) {
  ScoringSnapshot snap = MakeSnapshot();
  ServeOptions options;
  options.max_wait_micros = 0;
  RequestBatcher batcher(&snap, options);
  ScoreRequest request;
  request.node_ids = {3, 7, 7, 11};
  auto first = batcher.Score(request);
  ASSERT_TRUE(first.ok()) << first.status();

  const uint64_t before = la::BufferAllocations();
  auto repeat = batcher.Score(request);
  EXPECT_EQ(la::BufferAllocations(), before) << "a table hit runs no forward";
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  ASSERT_EQ(repeat.value().size(), first.value().size());
  EXPECT_EQ(std::memcmp(repeat.value().data(), first.value().data(),
                        first.value().size() * sizeof(NodeScore)),
            0);
  batcher.Stop();

  const obs::Report report = batcher.ObsReport();
  EXPECT_EQ(report.CounterOr("gale.serve.requests"), 2u);
  EXPECT_EQ(report.CounterOr("gale.serve.table_hits"), 1u);
  const auto hist = report.histograms.find("gale.serve.batch_size");
  ASSERT_NE(hist, report.histograms.end());
  EXPECT_EQ(hist->second.count, 1u) << "only the first request ran a batch";
  EXPECT_EQ(hist->second.sum, 3u) << "three distinct nodes, scored once";
}

TEST(ServeReplayTest, MixedHitsAndMissesMatchSerialReference) {
  // Table answers and batch answers must both be the serial reference's
  // bytes, at any pool size.
  ScoringSnapshot snap = MakeSnapshot();
  const std::vector<NodeScore> ref = SerialReference(snap);
  for (int threads : {1, 4}) {
    util::ScopedParallelism parallelism(threads);
    RunReplay(snap, ref, /*max_batch=*/8, /*reversed=*/false,
              /*repeat=*/true);
  }
}

TEST(ServeReplayTest, DedupScoresSharedNodesOnce) {
  ScoringSnapshot snap = MakeSnapshot();
  ServeOptions options;
  options.max_batch = 16;
  options.max_wait_micros = 0;
  RequestBatcher batcher(&snap, options);

  // One request repeating a single node: the batch dedups it to one slot.
  ScoreRequest request;
  request.node_ids.assign(6, 42);
  auto scores = batcher.Score(request);
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_EQ(scores.value().size(), 6u);
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(std::memcmp(&scores.value()[i], &scores.value()[0],
                          sizeof(NodeScore)),
              0);
  }
  batcher.Stop();

  const obs::Report report = batcher.ObsReport();
  EXPECT_EQ(report.CounterOr("gale.serve.nodes"), 6u);
  const auto hist = report.histograms.find("gale.serve.batch_size");
  ASSERT_NE(hist, report.histograms.end());
  EXPECT_EQ(hist->second.count, 1u) << "one request -> one batch";
  EXPECT_EQ(hist->second.sum, 1u) << "six duplicate ids -> one scored node";
}

TEST(ServeReplayTest, OversizedRequestIsRejectedAsOverloaded) {
  ScoringSnapshot snap = MakeSnapshot();
  ServeOptions options;
  options.max_batch = 4;
  options.queue_capacity = 4;
  RequestBatcher batcher(&snap, options);

  // More nodes than the queue can ever hold: deterministic rejection
  // regardless of batch timing.
  ScoreRequest request;
  for (size_t v = 0; v < 5; ++v) request.node_ids.push_back(v);
  auto rejected = batcher.Score(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kOverloaded);

  // A fitting request still goes through afterwards.
  request.node_ids.resize(3);
  EXPECT_TRUE(batcher.Score(request).ok());
  batcher.Stop();
  EXPECT_EQ(batcher.ObsReport().CounterOr("gale.serve.rejected"), 1u);
}

TEST(ServeReplayTest, ScoreAfterStopIsFailedPrecondition) {
  ScoringSnapshot snap = MakeSnapshot();
  RequestBatcher batcher(&snap);
  ScoreRequest request;
  request.node_ids = {1, 2};
  EXPECT_TRUE(batcher.Score(request).ok());
  batcher.Stop();
  // The same nodes are in the score table now; Stop refuses them anyway.
  auto late = batcher.Score(request);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
  batcher.Stop();  // idempotent
}

TEST(ServeReplayTest, StopWithCallersBlockedServesOrRefusesEachCall) {
  // One caller calls Stop() once every other caller has been served and
  // two calls are in flight, so the stop lands while a leader lingers or
  // scores and other callers wait queued behind it. Each call either
  // returns the serial reference's bytes (accepted before the stop, then
  // drained by its callers' batches) or fails with kFailedPrecondition
  // (arrived after). Every caller ends on such a refusal, so none hangs.
  // Every call asks for 9 nodes no earlier call asked for, so none is a
  // table answer: each one queues, a leader lingers for a second one to
  // fill max_batch 16, and a queue of five callers drains in several
  // batches. A caller that finds the node pool used up (only if the stop
  // is delayed by hundreds of calls) waits for Stop to return and then
  // makes its refused call.
  constexpr size_t kPoolNodes = 8192;
  constexpr size_t kIdsPerCall = 9;
  ScoringSnapshot snap = MakeSnapshot(kPoolNodes);
  const std::vector<NodeScore> ref = SerialReference(snap);
  for (int threads : {1, 4}) {
    util::ScopedParallelism parallelism(threads);
    ServeOptions options;
    options.max_batch = 16;
    options.max_wait_micros = 50;
    RequestBatcher batcher(&snap, options);

    constexpr size_t kCallers = 6;
    std::atomic<size_t> started{0};    // caller threads up
    std::atomic<size_t> running{0};    // callers served at least once
    std::atomic<size_t> in_flight{0};  // calls inside Score
    std::atomic<size_t> next_node{0};
    std::atomic<bool> stopped{false};
    std::atomic<size_t> served{0};
    std::atomic<size_t> refused{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> callers;
    for (size_t t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        started.fetch_add(1);
        while (started.load() < kCallers) std::this_thread::yield();
        if (t == 0) {
          while ((running.load() < kCallers - 1 || in_flight.load() < 2) &&
                 next_node.load() < kPoolNodes) {
            std::this_thread::yield();
          }
          batcher.Stop();
          stopped.store(true);
        }
        for (size_t call = 0;; ++call) {
          ScoreRequest request;
          const size_t first = next_node.fetch_add(kIdsPerCall);
          if (first + kIdsPerCall > kPoolNodes) {
            while (!stopped.load()) std::this_thread::yield();
          }
          for (size_t i = 0; i < kIdsPerCall; ++i) {
            request.node_ids.push_back((first + i) % kPoolNodes);
          }
          request.node_ids.push_back(request.node_ids.front());
          in_flight.fetch_add(1);
          auto scores = batcher.Score(request);
          in_flight.fetch_sub(1);
          if (!scores.ok()) {
            if (scores.status().code() ==
                util::StatusCode::kFailedPrecondition) {
              refused.fetch_add(1);
            } else {
              wrong.fetch_add(1000);
            }
            return;
          }
          for (size_t i = 0; i < request.node_ids.size(); ++i) {
            if (std::memcmp(&scores.value()[i], &ref[request.node_ids[i]],
                            sizeof(NodeScore)) != 0) {
              wrong.fetch_add(1);
            }
          }
          served.fetch_add(1);
          if (call == 0) running.fetch_add(1);
        }
      });
    }
    for (std::thread& c : callers) c.join();

    EXPECT_EQ(wrong.load(), 0) << "threads=" << threads;
    EXPECT_EQ(refused.load(), kCallers) << "threads=" << threads;
    const obs::Report report = batcher.ObsReport();
    // Every accepted request completed: Stop counted exactly the calls
    // that returned scores.
    EXPECT_EQ(report.CounterOr("gale.serve.requests"), served.load())
        << "threads=" << threads;
    EXPECT_EQ(report.CounterOr("gale.serve.table_hits"), 0u)
        << "threads=" << threads;
  }
}

TEST(ServeReplayTest, OutOfRangeNodeIsInvalidArgument) {
  ScoringSnapshot snap = MakeSnapshot();
  RequestBatcher batcher(&snap);
  ScoreRequest request;
  request.node_ids = {kNodes};
  auto bad = batcher.Score(request);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ServeReplayTest, InvalidOptionsSurfaceThroughScore) {
  ScoringSnapshot snap = MakeSnapshot();
  ServeOptions options;
  options.max_batch = 0;
  ASSERT_EQ(options.Validate().status().code(),
            util::StatusCode::kInvalidArgument);
  RequestBatcher batcher(&snap, options);
  ScoreRequest request;
  request.node_ids = {0};
  auto bad = batcher.Score(request);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ServeReplayTest, EmptyRequestSucceedsWithNoScores) {
  ScoringSnapshot snap = MakeSnapshot();
  RequestBatcher batcher(&snap);
  auto empty = batcher.Score(ScoreRequest{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(ServeReplayTest, ReportCarriesBatchSpansAndGauge) {
  ScoringSnapshot snap = MakeSnapshot();
  ServeOptions options;
  options.max_wait_micros = 0;
  RequestBatcher batcher(&snap, options);
  ScoreRequest request;
  request.node_ids = {3, 7, 7, 11};
  ASSERT_TRUE(batcher.Score(request).ok());
  batcher.Stop();

  const obs::Report report = batcher.ObsReport();
  size_t batch_spans = 0;
  for (const obs::SpanRecord& span : report.spans) {
    batch_spans += span.name == "gale.serve.batch";
  }
  EXPECT_GE(batch_spans, 1u);
  // The span auto-histogram shares the span's name.
  EXPECT_NE(report.histograms.find("gale.serve.batch"),
            report.histograms.end());
  EXPECT_NE(report.gauges.find("gale.serve.queue_depth"),
            report.gauges.end());
}

}  // namespace
}  // namespace gale::serve
