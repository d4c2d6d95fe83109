// VersionedGraphStore: batch validation + atomicity, epoch stamping,
// dirty-row tracking, and the exactness contract of incremental publish —
// an incrementally published snapshot is bitwise identical to a
// from-scratch rebuild of the same end-state graph, at 1 and 4 threads —
// including the warm feature-encoder state (its replans, its owned keys
// and its telemetry).

#include "store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/sgan.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "la/sparse_matrix.h"
#include "obs/export.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "store/delta_log.h"
#include "test_files.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gale::store {
namespace {

using graph::AttributeValue;
using graph::ValueKind;
using testing::ReadFileBytes;
using testing::TempPath;

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

// --- the warm feature-encoder state -----------------------------------

// Publishes `store` and a fresh store built from its end state, and
// expects byte-identical snapshots.
void ExpectMatchesScratch(VersionedGraphStore* store,
                          const core::DiscriminatorSnapshot& disc,
                          const std::string& tag) {
  auto published = store->PublishSnapshot(disc);
  ASSERT_TRUE(published.ok()) << published.status();
  auto scratch = VersionedGraphStore::Create(store->graph().Clone(),
                                             store->labels());
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  auto cold = scratch.value()->PublishSnapshot(disc);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const std::string warm_bytes =
      SnapshotBytes(published.value(), "warm_" + tag + ".bin");
  const std::string cold_bytes =
      SnapshotBytes(cold.value(), "cold_" + tag + ".bin");
  ASSERT_EQ(warm_bytes.size(), cold_bytes.size()) << tag;
  EXPECT_EQ(
      std::memcmp(warm_bytes.data(), cold_bytes.data(), warm_bytes.size()), 0)
      << "warm publish diverged from a scratch rebuild at " << tag;
}

constexpr size_t kTypes = 4;
constexpr size_t kPerType = 10;
const std::vector<std::string> kVocabulary = {"alpha", "beta", "gamma",
                                              "delta", "eps", "omega"};

// Four types, each with two text slots ("name", distinct per node, so
// key-like; "tags", words of a small vocabulary, so tokens repeat) and
// two numeric slots ("score", "weight"; every third weight null). Node
// 15's tags hold the only "zeta".
graph::AttributedGraph MakeFourTypeGraph() {
  graph::AttributedGraph g;
  for (size_t t = 0; t < kTypes; ++t) {
    g.AddNodeType("type" + std::to_string(t),
                  {{"name", ValueKind::kText},
                   {"tags", ValueKind::kText},
                   {"score", ValueKind::kNumeric},
                   {"weight", ValueKind::kNumeric}});
  }
  g.AddEdgeType("link");
  g.AddEdgeType("cite");
  for (size_t t = 0; t < kTypes; ++t) {
    for (size_t i = 0; i < kPerType; ++i) {
      const size_t v = t * kPerType + i;
      std::string tags = kVocabulary[v % kVocabulary.size()];
      tags += " " + kVocabulary[(3 * v + 1) % kVocabulary.size()];
      if (v == 15) tags = "zeta alpha";
      g.AddNode(t, {AttributeValue::Text(std::to_string(v) + "-name"),
                    AttributeValue::Text(tags),
                    AttributeValue::Number(10.0 * static_cast<double>(t) +
                                           1.5 * static_cast<double>(i)),
                    i % 3 == 0 ? AttributeValue::Null()
                               : AttributeValue::Number(
                                     static_cast<double>(v % 7))});
    }
  }
  const size_t n = kTypes * kPerType;
  for (size_t v = 0; v < n; ++v) {
    g.AddEdge(v, (v + 1) % n, 0);
    if (v % 4 == 0) g.AddEdge(v, (v + 13) % n, 1);
  }
  g.Finalize();
  return g;
}

std::vector<int> MakeFourTypeLabels() {
  std::vector<int> labels(kTypes * kPerType, core::kUnlabeled);
  labels[3] = core::kLabelError;
  labels[26] = core::kLabelError;
  labels[8] = core::kLabelCorrect;
  return labels;
}

// More than 80% of the slot's non-null text values distinct: the rule
// under which the encoder reads no token rarity for the slot.
bool SlotKeyLike(const graph::AttributedGraph& g, size_t type, size_t attr) {
  std::vector<std::string> values;
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    if (g.node_type(v) != type) continue;
    const AttributeValue& value = g.value(v, attr);
    if (value.kind == ValueKind::kText) values.push_back(value.text);
  }
  const size_t total = values.size();
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return total > 0 && static_cast<double>(values.size()) >
                          0.8 * static_cast<double>(total);
}

// Occurrences of `token` in the "tags" slot of every node.
size_t TagCount(const graph::AttributedGraph& g, std::string_view token) {
  size_t count = 0;
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    const AttributeValue& value = g.value(v, 1);
    if (value.kind != ValueKind::kText) continue;
    util::ForEachWhitespaceToken(value.text, [&](std::string_view tok) {
      count += tok == token;
    });
  }
  return count;
}

// A random batch of one to four deltas over the store's live state:
// numeric edits (some null), tag edits from the vocabulary (some null),
// labels, edge adds and removes, UpsertNode replaces and appends on types
// 1-3. Type 0's names change only in the scripted batches.
DeltaBatch RandomBatch(const VersionedGraphStore& store, util::Rng* rng) {
  const graph::AttributedGraph& g = store.graph();
  const size_t n = g.num_nodes();
  auto random_tags = [&] {
    std::string tags;
    const size_t words = 1 + rng->UniformInt(3);
    for (size_t w = 0; w < words; ++w) {
      if (w > 0) tags += " ";
      tags += kVocabulary[rng->UniformInt(kVocabulary.size())];
    }
    return AttributeValue::Text(tags);
  };
  auto random_values = [&](size_t node_id) {
    return std::vector<AttributeValue>{
        AttributeValue::Text(std::to_string(node_id) + "-node"),
        random_tags(), AttributeValue::Number(rng->Uniform(-5.0, 50.0)),
        rng->Bernoulli(0.3) ? AttributeValue::Null()
                            : AttributeValue::Number(rng->Uniform(0.0, 9.0))};
  };
  DeltaBatch batch;
  bool removed_edge = false;
  const size_t deltas = 1 + rng->UniformInt(4);
  for (size_t i = 0; i < deltas; ++i) {
    const size_t v = rng->UniformInt(n);
    switch (rng->UniformInt(8)) {
      case 0:
      case 1:
        batch.push_back(Delta::SetAttribute(
            v, 2 + rng->UniformInt(2),
            rng->Bernoulli(0.15)
                ? AttributeValue::Null()
                : AttributeValue::Number(rng->Uniform(-5.0, 50.0))));
        break;
      case 2:
      case 3:
        batch.push_back(Delta::SetAttribute(
            v, 1, rng->Bernoulli(0.1) ? AttributeValue::Null() : random_tags()));
        break;
      case 4:
        batch.push_back(Delta::SetLabel(
            v, rng->Bernoulli(0.5) ? core::kLabelError : core::kLabelCorrect));
        break;
      case 5: {
        const size_t u = (v + 1 + rng->UniformInt(n - 1)) % n;
        batch.push_back(Delta::UpsertEdge(v, u, rng->UniformInt(2)));
        break;
      }
      case 6: {
        if (removed_edge || g.num_edges() == 0) break;
        const auto& [a, b, type] = g.edges()[rng->UniformInt(g.num_edges())];
        batch.push_back(Delta::RemoveEdge(a, b, type));
        removed_edge = true;
        break;
      }
      default: {
        const size_t type = 1 + rng->UniformInt(kTypes - 1);
        if (rng->Bernoulli(0.5)) {
          // Replace: any node of `type`.
          size_t target = v;
          while (g.node_type(target) != type) target = (target + 1) % n;
          batch.push_back(Delta::UpsertNode(target, type, random_values(target)));
        } else if (batch.empty()) {
          // Append: first in its batch, so every later delta's node
          // already exists.
          batch.push_back(Delta::UpsertNode(n, type, random_values(n)));
          batch.push_back(Delta::UpsertEdge(n, v, 0));
        }
        break;
      }
    }
  }
  if (batch.empty()) batch.push_back(Delta::SetLabel(0, core::kUnlabeled));
  return batch;
}

// Publishing after every batch of a 48-batch seeded stream must match a
// scratch rebuild byte for byte, while the warm encoder state sees every
// kind of change: numeric edits, nulls, a token's last occurrence retired,
// a token another node already holds added, a slot's key-like flag
// flipping both ways, node replaces and appends, edge adds and removes.
TEST(VersionedGraphStoreTest, WarmEncoderMatchesScratchOverSeededStream) {
  auto created = VersionedGraphStore::Create(MakeFourTypeGraph(),
                                             MakeFourTypeLabels());
  ASSERT_TRUE(created.ok()) << created.status();
  VersionedGraphStore& store = *created.value();
  const core::DiscriminatorSnapshot disc = StoreDiscriminator(store);
  const graph::AttributedGraph& g = store.graph();
  util::Rng rng(20261019);

  ExpectMatchesScratch(&store, disc, "base");
  for (size_t b = 0; b < 48; ++b) {
    DeltaBatch batch;
    switch (b) {
      case 6:
        // Type 0's names go from 10 distinct of 10 to 8: no longer
        // key-like, so its rows start reading token rarity.
        ASSERT_TRUE(SlotKeyLike(g, 0, 0));
        batch = {Delta::SetAttribute(1, 0, AttributeValue::Text("dup name")),
                 Delta::SetAttribute(2, 0, AttributeValue::Text("dup name")),
                 Delta::SetAttribute(3, 0, AttributeValue::Text("dup name"))};
        break;
      case 12:
        // The only "zeta" leaves the graph.
        ASSERT_EQ(TagCount(g, "zeta"), 1u);
        batch = {Delta::SetAttribute(15, 1, AttributeValue::Text("beta"))};
        break;
      case 18:
        // A token other nodes hold arrives at one more node.
        ASSERT_GT(TagCount(g, "gamma"), 0u);
        batch = {Delta::SetAttribute(22, 1,
                                     AttributeValue::Text("gamma gamma"))};
        break;
      case 24:
        // 9 distinct of 10 again: key-like once more.
        ASSERT_FALSE(SlotKeyLike(g, 0, 0));
        batch = {Delta::SetAttribute(2, 0, AttributeValue::Text("2-renamed"))};
        break;
      case 30:
        // A replace that nulls a text and a numeric value.
        batch = {Delta::UpsertNode(5, 0,
                                   {AttributeValue::Text("5-name"),
                                    AttributeValue::Null(),
                                    AttributeValue::Number(99.0),
                                    AttributeValue::Null()})};
        break;
      default:
        batch = RandomBatch(store, &rng);
    }
    ASSERT_TRUE(store.ApplyBatch(batch).ok()) << "batch " << b;
    if (b == 6) {
      EXPECT_FALSE(SlotKeyLike(g, 0, 0));
    } else if (b == 12) {
      EXPECT_EQ(TagCount(g, "zeta"), 0u);
    } else if (b == 24) {
      EXPECT_TRUE(SlotKeyLike(g, 0, 0));
    }
    ExpectMatchesScratch(&store, disc, "batch_" + std::to_string(b));
  }
  // The stream appended nodes and moved edges.
  EXPECT_GT(g.num_nodes(), kTypes * kPerType);
  EXPECT_GT(store.ObsReport().CounterOr("gale.store.full_rebuilds"), 1u);
}

// The encoder state owns its keys: a token whose counted bytes came from
// a value the graph has since freed still counts, and still compares.
// Under ASan a state that kept views into the graph would read freed
// memory here.
TEST(VersionedGraphStoreTest, EncoderStateOutlivesReplacedStrings) {
  const std::string shared = "a-shared-token-too-long-for-inline-storage";
  graph::AttributedGraph g;
  g.AddNodeType("item", {{"tags", ValueKind::kText},
                         {"x", ValueKind::kNumeric}});
  g.AddEdgeType("link");
  g.AddNode(0, {AttributeValue::Text(shared + " left"),
                AttributeValue::Number(1.0)});
  g.AddNode(0, {AttributeValue::Text(shared), AttributeValue::Number(2.0)});
  for (size_t i = 0; i < 4; ++i) {
    g.AddNode(0, {AttributeValue::Text("common"),
                  AttributeValue::Number(static_cast<double>(i))});
  }
  for (size_t v = 0; v + 1 < 6; ++v) g.AddEdge(v, v + 1, 0);
  g.Finalize();
  auto created = VersionedGraphStore::Create(
      std::move(g), std::vector<int>(6, core::kUnlabeled));
  ASSERT_TRUE(created.ok()) << created.status();
  VersionedGraphStore& store = *created.value();
  const core::DiscriminatorSnapshot disc = StoreDiscriminator(store);
  // [type one-hot (1) | log-degree | max |z|, mean |z|, rarity, nulls |...]
  constexpr size_t kRarity = 1 + 1 + 2;
  auto rarity_of_node_1 = [&] {
    auto published = store.PublishSnapshot(disc);
    EXPECT_TRUE(published.ok()) << published.status();
    return published.value().snapshot.features().RowPtr(1)[kRarity];
  };

  // 3 distinct of 6 values: not key-like, so rarity is read. The shared
  // token is held twice.
  EXPECT_EQ(rarity_of_node_1(), 1.0 / std::log2(4.0));

  // Node 0's value, whose bytes the shared token was first counted from,
  // is replaced and freed: node 1 now holds the token alone.
  ASSERT_TRUE(
      store.ApplyBatch({Delta::SetAttribute(0, 0, AttributeValue::Text("new"))})
          .ok());
  EXPECT_EQ(rarity_of_node_1(), 1.0 / std::log2(3.0));

  // A new node counts the shared token again: its key compares against
  // the stored bytes.
  ASSERT_TRUE(store
                  .ApplyBatch({Delta::UpsertNode(6, 0,
                                                 {AttributeValue::Text(shared),
                                                  AttributeValue::Number(7.0)}),
                               Delta::UpsertEdge(6, 0, 0)})
                  .ok());
  EXPECT_EQ(rarity_of_node_1(), 1.0 / std::log2(4.0));
  ExpectMatchesScratch(&store, disc, "lifetime");
}

// The publish telemetry of the warm encoder state: the encode span
// carries the node count and the number of replanned nodes, and the
// gale.store.nodes_replanned counter adds them up. Create plans every
// node, so the first publish replans none; an attribute-only epoch with
// k edits replans exactly those k nodes, not n; label and topology
// deltas replan none.
TEST(VersionedGraphStoreTest, PublishReplansOnlyEditedNodes) {
  auto run = [] {
    auto store = MakeStore();
    const core::DiscriminatorSnapshot disc = StoreDiscriminator(*store);
    auto last_encode_span = [&] {
      const obs::Report report = store->ObsReport();
      for (size_t i = report.spans.size(); i-- > 0;) {
        if (report.spans[i].name == "gale.store.publish.encode") {
          return report.spans[i];
        }
      }
      ADD_FAILURE() << "no encode span";
      return obs::SpanRecord{};
    };
    EXPECT_TRUE(store->PublishSnapshot(disc).ok());
    EXPECT_EQ(last_encode_span().ArgOr("nodes", -1.0), kNodes);
    EXPECT_EQ(last_encode_span().ArgOr("replanned", -1.0), 0.0);

    // k = 3 attribute edits on three nodes (node 9 twice).
    EXPECT_TRUE(store
                    ->ApplyBatch({Delta::SetAttribute(
                                      4, 0, AttributeValue::Text("edited")),
                                  Delta::SetAttribute(
                                      9, 1, AttributeValue::Number(1.0)),
                                  Delta::SetAttribute(
                                      17, 1, AttributeValue::Null())})
                    .ok());
    EXPECT_TRUE(store
                    ->ApplyBatch({Delta::SetAttribute(
                        9, 0, AttributeValue::Text("edited again"))})
                    .ok());
    EXPECT_TRUE(store->PublishSnapshot(disc).ok());
    EXPECT_EQ(last_encode_span().ArgOr("nodes", -1.0), kNodes);
    EXPECT_EQ(last_encode_span().ArgOr("replanned", -1.0), 3.0);
    EXPECT_EQ(store->ObsReport().CounterOr("gale.store.nodes_replanned"),
              3u);

    // Labels and edges dirty rows but no values.
    EXPECT_TRUE(store
                    ->ApplyBatch({Delta::SetLabel(20, core::kLabelError),
                                  Delta::UpsertEdge(0, 5, 1)})
                    .ok());
    EXPECT_TRUE(store->PublishSnapshot(disc).ok());
    EXPECT_EQ(last_encode_span().ArgOr("replanned", -1.0), 0.0);
    EXPECT_EQ(store->ObsReport().CounterOr("gale.store.nodes_replanned"),
              3u);
    return store->ObsReport();
  };

  const obs::Report first = run();
  const obs::Report second = run();
  EXPECT_EQ(obs::MetricsJsonLines(first), obs::MetricsJsonLines(second));
  if (obs::DefaultTimeMode() == obs::TimeMode::kLogical) {
    EXPECT_EQ(obs::ChromeTraceJson(first), obs::ChromeTraceJson(second));
  }
}

}  // namespace
}  // namespace gale::store
