// VersionedGraphStore: batch validation + atomicity, epoch stamping,
// dirty-row tracking, and the exactness contract of incremental publish —
// an incrementally published snapshot is bitwise identical to a
// from-scratch rebuild of the same end-state graph, at 1 and 4 threads.

#include "store/store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "core/sgan.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "la/sparse_matrix.h"
#include "obs/report.h"
#include "serve/snapshot.h"
#include "store/delta_log.h"
#include "util/parallel.h"
#include "util/status.h"

namespace gale::store {
namespace {

using graph::AttributeValue;
using graph::ValueKind;

constexpr size_t kNodes = 30;

// One "film" type with a text and a numeric attribute; ring + chord
// topology; a couple of error/correct labels.
graph::AttributedGraph MakeBaseGraph() {
  graph::AttributedGraph g;
  const size_t film = g.AddNodeType(
      "film", {{"name", ValueKind::kText}, {"year", ValueKind::kNumeric}});
  g.AddEdgeType("subsequent");
  g.AddEdgeType("remake");
  for (size_t v = 0; v < kNodes; ++v) {
    g.AddNode(film, {AttributeValue::Text("film-" + std::to_string(v)),
                     AttributeValue::Number(1990.0 + static_cast<double>(v))});
  }
  for (size_t v = 0; v < kNodes; ++v) {
    g.AddEdge(v, (v + 1) % kNodes, 0);
    if (v % 3 == 0) g.AddEdge(v, (v + 7) % kNodes, 1);
  }
  g.Finalize();
  return g;
}

std::vector<int> MakeBaseLabels() {
  std::vector<int> labels(kNodes, core::kUnlabeled);
  labels[2] = core::kLabelError;
  labels[11] = core::kLabelError;
  labels[5] = core::kLabelCorrect;
  return labels;
}

core::DiscriminatorSnapshot MakeDiscriminator(size_t feature_dim) {
  core::SganConfig config;
  config.hidden_dim = 8;
  config.embedding_dim = 6;
  config.seed = 77;
  core::Sgan sgan(feature_dim, config);
  return sgan.ExportDiscriminator();
}

std::unique_ptr<VersionedGraphStore> MakeStore(StoreOptions options = {}) {
  auto store =
      VersionedGraphStore::Create(MakeBaseGraph(), MakeBaseLabels(), options);
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(store).value();
}

core::DiscriminatorSnapshot StoreDiscriminator(
    const VersionedGraphStore& store) {
  const graph::FeatureEncoder encoder;
  return MakeDiscriminator(encoder.RawDims(store.graph()));
}

// Files live in a per-process directory, removed at exit: ctest runs this
// binary and its _mt4 entry concurrently, and shared paths would let one
// truncate the other's files.
std::string TempPath(const std::string& name) {
  static const struct ProcessDir {
    std::string path =
        ::testing::TempDir() + "/gale_store_" + std::to_string(getpid());
    ProcessDir() { std::filesystem::create_directories(path); }
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Serialized bytes of a published snapshot — the memcmp currency of every
// exactness test here.
std::string SnapshotBytes(const PublishedSnapshot& published,
                          const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(published.snapshot.Save(path).ok());
  return ReadFileBytes(path);
}

// A three-batch mutation stream touching attributes, labels, and
// topology (the publish-after-each-batch incremental workload).
std::vector<DeltaBatch> MakeMutationStream() {
  return {
      // Batch 1: attribute-only.
      {Delta::SetAttribute(4, 0, AttributeValue::Text("film-4-remaster")),
       Delta::SetAttribute(9, 1, AttributeValue::Number(2024.0)),
       Delta::UpsertNode(7, 0,
                         {AttributeValue::Text("film-7-recut"),
                          AttributeValue::Number(2001.0)})},
      // Batch 2: label-only (one new error, one retirement).
      {Delta::SetLabel(20, core::kLabelError),
       Delta::SetLabel(11, core::kLabelCorrect)},
      // Batch 3: topology (new node + edges rewired through it).
      {Delta::UpsertNode(kNodes, 0,
                         {AttributeValue::Text("film-new"),
                          AttributeValue::Number(2026.0)}),
       Delta::UpsertEdge(kNodes, 3, 0),
       Delta::UpsertEdge(kNodes, 15, 1),
       Delta::RemoveEdge(3, 4, 0),
       Delta::SetLabel(kNodes, core::kLabelError)},
  };
}

TEST(VersionedGraphStoreTest, CreateValidatesInputs) {
  graph::AttributedGraph unfinalized;
  unfinalized.AddNodeType("t", {});
  auto open = VersionedGraphStore::Create(std::move(unfinalized), {});
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), util::StatusCode::kFailedPrecondition);

  auto short_labels = VersionedGraphStore::Create(
      MakeBaseGraph(), std::vector<int>(kNodes - 1, core::kUnlabeled));
  ASSERT_FALSE(short_labels.ok());
  EXPECT_EQ(short_labels.status().code(), util::StatusCode::kInvalidArgument);

  std::vector<int> bad_labels = MakeBaseLabels();
  bad_labels[0] = 42;
  auto alien_label =
      VersionedGraphStore::Create(MakeBaseGraph(), std::move(bad_labels));
  ASSERT_FALSE(alien_label.ok());
  EXPECT_EQ(alien_label.status().code(), util::StatusCode::kInvalidArgument);

  StoreOptions no_cache;
  no_cache.ppr.cache_rows = false;
  auto uncached =
      VersionedGraphStore::Create(MakeBaseGraph(), MakeBaseLabels(), no_cache);
  ASSERT_FALSE(uncached.ok());
  EXPECT_EQ(uncached.status().code(), util::StatusCode::kInvalidArgument);

  StoreOptions zero_batch;
  zero_batch.max_batch_deltas = 0;
  auto degenerate = VersionedGraphStore::Create(MakeBaseGraph(),
                                                MakeBaseLabels(), zero_batch);
  ASSERT_FALSE(degenerate.ok());
  EXPECT_EQ(degenerate.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(VersionedGraphStoreTest, ApplyBatchRejectsInvalidDeltasAtomically) {
  auto store = MakeStore();

  struct Case {
    DeltaBatch batch;
    util::StatusCode code;
  };
  const std::vector<Case> cases{
      // Unknown node targets.
      {{Delta::SetLabel(kNodes + 5, core::kLabelError)},
       util::StatusCode::kNotFound},
      {{Delta::SetAttribute(kNodes, 0, AttributeValue::Text("x"))},
       util::StatusCode::kNotFound},
      // Node id past the append position.
      {{Delta::UpsertNode(kNodes + 1, 0,
                          {AttributeValue::Text("x"),
                           AttributeValue::Number(0.0)})},
       util::StatusCode::kNotFound},
      // Type-mismatched attribute value (numeric slot, text value).
      {{Delta::SetAttribute(3, 1, AttributeValue::Text("not-a-year"))},
       util::StatusCode::kInvalidArgument},
      // Wrong value count for the declared schema.
      {{Delta::UpsertNode(kNodes, 0, {AttributeValue::Text("x")})},
       util::StatusCode::kInvalidArgument},
      // Unknown node type / attribute / edge type.
      {{Delta::UpsertNode(kNodes, 9,
                          {AttributeValue::Text("x"),
                           AttributeValue::Number(0.0)})},
       util::StatusCode::kInvalidArgument},
      {{Delta::SetAttribute(3, 7, AttributeValue::Text("x"))},
       util::StatusCode::kNotFound},
      {{Delta::UpsertEdge(1, 2, 9)}, util::StatusCode::kInvalidArgument},
      // Removing an edge that is not there.
      {{Delta::RemoveEdge(0, 5, 0)}, util::StatusCode::kNotFound},
      // Label outside the core conventions.
      {{Delta::SetLabel(1, 3)}, util::StatusCode::kInvalidArgument},
      // A valid delta does NOT shield a later invalid one (atomicity).
      {{Delta::SetAttribute(4, 0, AttributeValue::Text("would-apply")),
        Delta::SetLabel(kNodes + 5, core::kLabelError)},
       util::StatusCode::kNotFound},
  };

  for (size_t c = 0; c < cases.size(); ++c) {
    const util::Status rejected = store->ApplyBatch(cases[c].batch);
    ASSERT_FALSE(rejected.ok()) << "case " << c;
    EXPECT_EQ(rejected.code(), cases[c].code) << "case " << c;
  }

  // Nothing moved: epoch, labels, values, dirt all pristine.
  EXPECT_EQ(store->epoch(), 0u);
  EXPECT_EQ(store->num_dirty_rows(), 0u);
  EXPECT_EQ(store->labels(), MakeBaseLabels());
  EXPECT_EQ(store->graph().value(4, 0), AttributeValue::Text("film-4"));
  EXPECT_EQ(store->graph().num_nodes(), kNodes);

  const obs::Report report = store->ObsReport();
  EXPECT_EQ(report.CounterOr("gale.store.batches_rejected"), cases.size());
  EXPECT_EQ(report.CounterOr("gale.store.batches_applied"), 0u);
}

TEST(VersionedGraphStoreTest, ApplyBatchRejectsOversizedBatch) {
  StoreOptions options;
  options.max_batch_deltas = 2;
  auto store = MakeStore(options);
  const DeltaBatch big{Delta::SetLabel(0, core::kLabelError),
                       Delta::SetLabel(1, core::kLabelError),
                       Delta::SetLabel(2, core::kLabelError)};
  const util::Status rejected = store->ApplyBatch(big);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(store->epoch(), 0u);
}

TEST(VersionedGraphStoreTest, EpochsAdvancePerAppliedBatch) {
  auto store = MakeStore();
  EXPECT_EQ(store->epoch(), 0u);
  EXPECT_EQ(store->published_epoch(), 0u);

  const std::vector<DeltaBatch> stream = MakeMutationStream();
  for (size_t b = 0; b < stream.size(); ++b) {
    ASSERT_TRUE(store->ApplyBatch(stream[b]).ok());
    EXPECT_EQ(store->epoch(), b + 1);
  }

  auto published = store->PublishSnapshot(StoreDiscriminator(*store));
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(published.value().epoch, stream.size());
  EXPECT_EQ(store->published_epoch(), stream.size());
}

TEST(VersionedGraphStoreTest, DirtyTrackingCoversTargetsAndNeighbors) {
  auto store = MakeStore();
  // Flush the construction-time cold state (the first publish always
  // rebuilds) so the flags below reflect only the applied batches.
  ASSERT_TRUE(store->PublishSnapshot(StoreDiscriminator(*store)).ok());

  // Attribute-only: exactly the target row is dirty, topology is clean.
  ASSERT_TRUE(store
                  ->ApplyBatch({Delta::SetAttribute(
                      10, 0, AttributeValue::Text("renamed"))})
                  .ok());
  EXPECT_EQ(store->num_dirty_rows(), 1u);
  EXPECT_FALSE(store->topology_dirty());

  // Edge change: endpoints plus their current neighborhoods are dirty.
  // Node 0's CSR ring/chord neighbors: 1, 29, 7; node 5's: 4, 6.
  ASSERT_TRUE(store->ApplyBatch({Delta::UpsertEdge(0, 5, 1)}).ok());
  EXPECT_TRUE(store->topology_dirty());
  // {10} ∪ {0, 1, 29, 7} ∪ {5, 4, 6} = 8 rows.
  EXPECT_EQ(store->num_dirty_rows(), 8u);

  // A validated no-op upsert (edge already present) dirties nothing.
  const size_t before = store->num_dirty_rows();
  ASSERT_TRUE(store->ApplyBatch({Delta::UpsertEdge(5, 0, 1),
                                 Delta::SetLabel(10, core::kUnlabeled)})
                  .ok());
  EXPECT_EQ(store->num_dirty_rows(), before);  // 10 was already dirty

  // Publish resets the dirt.
  auto published = store->PublishSnapshot(StoreDiscriminator(*store));
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(published.value().rows_invalidated, 8u);
  EXPECT_TRUE(published.value().full_rebuild);
  EXPECT_EQ(store->num_dirty_rows(), 0u);
  EXPECT_FALSE(store->topology_dirty());
}

// The tentpole exactness contract: publishing after every batch (warm,
// incremental) must produce byte-identical snapshots to a second store
// that replays the same log and publishes once, cold, at the end.
TEST(VersionedGraphStoreTest, IncrementalPublishMatchesScratchRebuild) {
  const std::vector<DeltaBatch> stream = MakeMutationStream();

  auto incremental = MakeStore();
  const core::DiscriminatorSnapshot disc = StoreDiscriminator(*incremental);
  std::string last_bytes;
  for (size_t b = 0; b < stream.size(); ++b) {
    ASSERT_TRUE(incremental->ApplyBatch(stream[b]).ok());
    auto published = incremental->PublishSnapshot(disc);
    ASSERT_TRUE(published.ok()) << published.status();
    last_bytes =
        SnapshotBytes(published.value(), "inc_" + std::to_string(b) + ".bin");

    // From-scratch reference: fresh store, replay prefix, single cold
    // publish.
    auto scratch = MakeStore();
    ASSERT_TRUE(
        scratch
            ->Replay(std::vector<DeltaBatch>(stream.begin(),
                                             stream.begin() + b + 1))
            .ok());
    auto cold = scratch->PublishSnapshot(disc);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_TRUE(cold.value().full_rebuild);
    const std::string cold_bytes =
        SnapshotBytes(cold.value(), "cold_" + std::to_string(b) + ".bin");
    ASSERT_EQ(last_bytes.size(), cold_bytes.size()) << "epoch " << b + 1;
    EXPECT_EQ(
        std::memcmp(last_bytes.data(), cold_bytes.data(), last_bytes.size()),
        0)
        << "incremental publish diverged from scratch rebuild at epoch "
        << b + 1;
  }
}

// Label-only epochs must reuse every still-error seed's warm PPR row and
// refresh only the newly labeled ones; attr-only epochs keep the walk.
TEST(VersionedGraphStoreTest, WarmPublishReusesUnchangedPprRows) {
  auto store = MakeStore();
  const core::DiscriminatorSnapshot disc = StoreDiscriminator(*store);

  auto first = store->PublishSnapshot(disc);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first.value().full_rebuild);  // first publish is always cold
  EXPECT_EQ(first.value().ppr_rows_refreshed, 2u);  // seeds {2, 11}
  EXPECT_EQ(first.value().ppr_rows_reused, 0u);

  // One new error, one retirement: only the new seed power-iterates.
  ASSERT_TRUE(store
                  ->ApplyBatch({Delta::SetLabel(20, core::kLabelError),
                                Delta::SetLabel(11, core::kLabelCorrect)})
                  .ok());
  auto second = store->PublishSnapshot(disc);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second.value().full_rebuild);
  EXPECT_EQ(second.value().ppr_rows_refreshed, 1u);  // seed 20
  EXPECT_EQ(second.value().ppr_rows_reused, 1u);     // seed 2 stayed warm

  // Attribute-only epoch: zero PPR work, still no rebuild.
  ASSERT_TRUE(store
                  ->ApplyBatch({Delta::SetAttribute(
                      6, 0, AttributeValue::Text("patched"))})
                  .ok());
  auto third = store->PublishSnapshot(disc);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_FALSE(third.value().full_rebuild);
  EXPECT_EQ(third.value().ppr_rows_refreshed, 0u);
  EXPECT_EQ(third.value().ppr_rows_reused, 2u);

  const obs::Report report = store->ObsReport();
  EXPECT_EQ(report.CounterOr("gale.store.full_rebuilds"), 1u);
  EXPECT_EQ(report.CounterOr("gale.store.epochs_published"), 3u);
  EXPECT_EQ(report.CounterOr("gale.store.ppr_rows_reused"), 3u);
}

// The published snapshot must be indistinguishable from one assembled by
// serve::ScoringSnapshot::FromParts over the same end state — the store
// adds versioning, not a different math path.
TEST(VersionedGraphStoreTest, PublishMatchesFromPartsAssembly) {
  auto store = MakeStore();
  const core::DiscriminatorSnapshot disc = StoreDiscriminator(*store);
  ASSERT_TRUE(store
                  ->ApplyBatch({Delta::SetLabel(20, core::kLabelError),
                                Delta::SetAttribute(
                                    4, 1, AttributeValue::Number(1888.0))})
                  .ok());
  auto published = store->PublishSnapshot(disc);
  ASSERT_TRUE(published.ok()) << published.status();

  auto features = graph::FeatureEncoder().Encode(store->graph());
  ASSERT_TRUE(features.ok()) << features.status();
  auto reference = serve::ScoringSnapshot::FromParts(
      disc, std::move(features).value(),
      la::SparseMatrix::NormalizedAdjacency(store->graph().num_nodes(),
                                            store->graph().EdgePairs()),
      store->labels());
  ASSERT_TRUE(reference.ok()) << reference.status();

  const std::string store_bytes =
      SnapshotBytes(published.value(), "vs_parts_store.bin");
  const std::string ref_path = TempPath("vs_parts_ref.bin");
  ASSERT_TRUE(reference.value().Save(ref_path).ok());
  const std::string ref_bytes = ReadFileBytes(ref_path);
  ASSERT_EQ(store_bytes.size(), ref_bytes.size());
  EXPECT_EQ(
      std::memcmp(store_bytes.data(), ref_bytes.data(), store_bytes.size()),
      0);
}

// Replay determinism across thread counts: the same delta log produces
// byte-identical published snapshots at GALE_NUM_THREADS=1 and 4.
TEST(VersionedGraphStoreTest, ReplayIsByteIdenticalAcrossThreadCounts) {
  const std::vector<DeltaBatch> stream = MakeMutationStream();

  auto run = [&stream](int threads, const std::string& name) {
    util::ScopedParallelism parallelism(threads);
    auto store = MakeStore();
    const core::DiscriminatorSnapshot disc = StoreDiscriminator(*store);
    EXPECT_TRUE(store->Replay(stream).ok());
    auto published = store->PublishSnapshot(disc);
    EXPECT_TRUE(published.ok()) << published.status();
    return SnapshotBytes(published.value(), name);
  };

  const std::string serial = run(1, "threads_1.bin");
  const std::string parallel = run(4, "threads_4.bin");
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(), serial.size()), 0)
      << "published snapshot depends on GALE_NUM_THREADS";
}

TEST(VersionedGraphStoreTest, ReplayReportsFailingBatchIndex) {
  auto store = MakeStore();
  const std::vector<DeltaBatch> stream{
      {Delta::SetLabel(0, core::kLabelError)},
      {Delta::SetLabel(kNodes + 9, core::kLabelError)},  // invalid
      {Delta::SetLabel(1, core::kLabelError)},
  };
  const util::Status failed = store->Replay(stream);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), util::StatusCode::kNotFound);
  EXPECT_NE(failed.message().find("batch 1"), std::string::npos)
      << failed.message();
  EXPECT_EQ(store->epoch(), 1u);  // the good prefix applied
}

// End-to-end through the log: write batches to disk, read them back,
// replay into a store, publish, score — the README quickstart shape.
TEST(VersionedGraphStoreTest, LogReplayPublishScoreQuickstart) {
  const std::string path = TempPath("quickstart.dlog");
  {
    auto writer = DeltaLogWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const DeltaBatch& batch : MakeMutationStream()) {
      ASSERT_TRUE(writer.value().Append(batch).ok());
    }
  }
  auto batches = ReadDeltaLog(path);
  ASSERT_TRUE(batches.ok()) << batches.status();

  auto store = MakeStore();
  ASSERT_TRUE(store->Replay(batches.value()).ok());
  auto published = store->PublishSnapshot(StoreDiscriminator(*store));
  ASSERT_TRUE(published.ok()) << published.status();
  EXPECT_EQ(published.value().epoch, 3u);

  serve::SnapshotScorer scorer(&published.value().snapshot, 4);
  std::vector<size_t> nodes{0, 20, kNodes};  // kNodes added by batch 3
  std::vector<serve::NodeScore> scores(nodes.size());
  scorer.ScoreInto(nodes, scores.data());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_GT(scores[i].p_error, 0.0);
    EXPECT_LT(scores[i].p_error, 1.0);
  }
  // The new node was labeled error, so it has self-influence.
  EXPECT_GT(scores[2].error_influence, 0.0);
}

}  // namespace
}  // namespace gale::store
