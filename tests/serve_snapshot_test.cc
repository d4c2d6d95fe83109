// ScoringSnapshot: build validation, bitwise equivalence with the SGAN
// forward, allocation-free scoring, and the versioned binary format
// (round-trip byte identity + coded rejection of corrupt files).

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/sgan.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "prop/ppr.h"
#include "test_files.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gale::serve {
namespace {

using testing::ReadFileBytes;
using testing::TempPath;
using testing::WriteFileBytes;

constexpr size_t kNodes = 40;
constexpr size_t kDim = 6;

la::Matrix MakeFeatures(uint64_t seed) {
  la::Matrix x(kNodes, kDim);
  util::Rng rng(seed);
  for (size_t r = 0; r < kNodes; ++r) {
    for (size_t c = 0; c < kDim; ++c) {
      *(x.RowPtr(r) + c) = rng.Uniform(-1.0, 1.0);
    }
  }
  return x;
}

la::SparseMatrix MakeWalk() {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < kNodes; ++v) {
    edges.emplace_back(v, (v + 1) % kNodes);      // ring
    edges.emplace_back(v, (v + 7) % kNodes);      // chords
  }
  return la::SparseMatrix::NormalizedAdjacency(kNodes, edges);
}

std::vector<int> MakeLabels() {
  std::vector<int> labels(kNodes, core::kUnlabeled);
  labels[3] = core::kLabelError;
  labels[17] = core::kLabelError;
  labels[5] = core::kLabelCorrect;
  labels[29] = core::kLabelCorrect;
  return labels;
}

core::DiscriminatorSnapshot MakeDiscriminator(uint64_t seed) {
  core::SganConfig config;
  config.hidden_dim = 10;
  config.embedding_dim = 7;
  config.seed = seed;
  core::Sgan sgan(kDim, config);
  return sgan.ExportDiscriminator();
}

ScoringSnapshot MakeSnapshot(uint64_t seed = 11) {
  auto snap = ScoringSnapshot::FromParts(MakeDiscriminator(seed),
                                         MakeFeatures(seed ^ 0x9), MakeWalk(),
                                         MakeLabels(), 0.2);
  EXPECT_TRUE(snap.ok()) << snap.status();
  return std::move(snap).value();
}

TEST(ScoringSnapshotTest, FromPartsRejectsBadShapes) {
  // Feature-dim mismatch with the discriminator's input layer.
  auto wrong_dim = ScoringSnapshot::FromParts(
      MakeDiscriminator(1), la::Matrix(kNodes, kDim + 1), MakeWalk(),
      MakeLabels());
  ASSERT_FALSE(wrong_dim.ok());
  EXPECT_EQ(wrong_dim.status().code(), util::StatusCode::kInvalidArgument);

  // Walk matrix not n x n.
  std::vector<std::pair<size_t, size_t>> edges{{0, 1}};
  auto wrong_walk = ScoringSnapshot::FromParts(
      MakeDiscriminator(1), MakeFeatures(1),
      la::SparseMatrix::NormalizedAdjacency(kNodes / 2, edges), MakeLabels());
  ASSERT_FALSE(wrong_walk.ok());
  EXPECT_EQ(wrong_walk.status().code(), util::StatusCode::kInvalidArgument);

  // Label vector of the wrong length.
  auto wrong_labels = ScoringSnapshot::FromParts(
      MakeDiscriminator(1), MakeFeatures(1), MakeWalk(),
      std::vector<int>(kNodes - 1, core::kUnlabeled));
  ASSERT_FALSE(wrong_labels.ok());
  EXPECT_EQ(wrong_labels.status().code(), util::StatusCode::kInvalidArgument);

  // Empty discriminator.
  auto no_layers = ScoringSnapshot::FromParts(
      core::DiscriminatorSnapshot{}, MakeFeatures(1), MakeWalk(),
      MakeLabels());
  ASSERT_FALSE(no_layers.ok());
  EXPECT_EQ(no_layers.status().code(), util::StatusCode::kInvalidArgument);

  // ppr_alpha outside (0, 1).
  auto bad_alpha = ScoringSnapshot::FromParts(
      MakeDiscriminator(1), MakeFeatures(1), MakeWalk(), MakeLabels(), 1.5);
  ASSERT_FALSE(bad_alpha.ok());
  EXPECT_EQ(bad_alpha.status().code(), util::StatusCode::kInvalidArgument);

  // A LeakyReLU slope that is not finite and > 0.
  for (double slope : {0.0, -0.2, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    core::DiscriminatorSnapshot disc = MakeDiscriminator(1);
    disc.leaky_slope = slope;
    auto bad_slope = ScoringSnapshot::FromParts(
        std::move(disc), MakeFeatures(1), MakeWalk(), MakeLabels());
    ASSERT_FALSE(bad_slope.ok()) << slope;
    EXPECT_EQ(bad_slope.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ScoringSnapshotTest, ScorerMatchesSganForwardBitwise) {
  core::SganConfig config;
  config.hidden_dim = 10;
  config.embedding_dim = 7;
  config.seed = 21;
  core::Sgan sgan(kDim, config);
  const la::Matrix x = MakeFeatures(33);

  auto snap = ScoringSnapshot::FromParts(sgan.ExportDiscriminator(), x,
                                         MakeWalk(), MakeLabels());
  ASSERT_TRUE(snap.ok()) << snap.status();

  const la::Matrix probs = sgan.PredictProbabilities(x);
  SnapshotScorer scorer(&snap.value(), kNodes);
  std::vector<size_t> all(kNodes);
  for (size_t v = 0; v < kNodes; ++v) all[v] = v;
  std::vector<NodeScore> scores(kNodes);
  scorer.ScoreInto(all, scores.data());

  for (size_t v = 0; v < kNodes; ++v) {
    // Bitwise, not approximate: the scorer replays the exact eval forward.
    EXPECT_EQ(scores[v].p_error, *(probs.RowPtr(v) + 0)) << "node " << v;
    EXPECT_EQ(scores[v].p_correct, *(probs.RowPtr(v) + 1)) << "node " << v;
  }
}

TEST(ScoringSnapshotTest, ScorerIsBatchCompositionInvariant) {
  ScoringSnapshot snap = MakeSnapshot();
  SnapshotScorer big(&snap, kNodes);
  SnapshotScorer one(&snap, 1);

  std::vector<size_t> all(kNodes);
  for (size_t v = 0; v < kNodes; ++v) all[v] = v;
  std::vector<NodeScore> batched(kNodes);
  big.ScoreInto(all, batched.data());

  for (size_t v = 0; v < kNodes; ++v) {
    std::vector<size_t> single{v};
    NodeScore s;
    one.ScoreInto(single, &s);
    EXPECT_EQ(std::memcmp(&s, &batched[v], sizeof(NodeScore)), 0)
        << "node " << v << " depends on its batch";
  }
}

TEST(ScoringSnapshotTest, ScoreIntoIsAllocationFreeAfterWarmup) {
  ScoringSnapshot snap = MakeSnapshot();
  SnapshotScorer scorer(&snap, 8);
  std::vector<size_t> nodes{1, 4, 9, 16, 25, 36};
  std::vector<NodeScore> scores(nodes.size());
  scorer.ScoreInto(nodes, scores.data());  // warm (ctor already warmed too)

  const uint64_t before = la::BufferAllocations();
  scorer.ScoreInto(nodes, scores.data());
  std::vector<size_t> smaller{2, 3};
  scorer.ScoreInto(smaller, scores.data());
  EXPECT_EQ(la::BufferAllocations(), before)
      << "steady-state ScoreInto must not allocate la buffers";
}

TEST(ScoringSnapshotTest, InfluenceMatchesManualPprSum) {
  ScoringSnapshot snap = MakeSnapshot();
  const la::SparseMatrix walk = MakeWalk();
  prop::PprEngine engine(&walk, prop::PprOptions{.alpha = 0.2});
  std::vector<double> expected(kNodes, 0.0);
  for (size_t u : {size_t{3}, size_t{17}}) {
    const std::vector<double>& row = engine.Row(u);
    for (size_t v = 0; v < kNodes; ++v) expected[v] += row[v];
  }
  ASSERT_EQ(snap.error_influence().size(), kNodes);
  for (size_t v = 0; v < kNodes; ++v) {
    EXPECT_EQ(snap.error_influence()[v], expected[v]) << "node " << v;
  }
}

TEST(ScoringSnapshotTest, FromPartsWithInfluenceMatchesBakedSnapshot) {
  // Precompute the influence exactly the way FromParts bakes it...
  const la::SparseMatrix walk = MakeWalk();
  prop::PprEngine engine(&walk, prop::PprOptions{.alpha = 0.2});
  std::vector<double> influence(kNodes, 0.0);
  for (size_t u : {size_t{3}, size_t{17}}) {
    const std::vector<double>& row = engine.Row(u);
    for (size_t v = 0; v < kNodes; ++v) influence[v] += row[v];
  }
  auto adopted = ScoringSnapshot::FromPartsWithInfluence(
      MakeDiscriminator(11), MakeFeatures(11 ^ 0x9), MakeWalk(), MakeLabels(),
      std::move(influence), 0.2);
  ASSERT_TRUE(adopted.ok()) << adopted.status();

  // ...and the two construction paths must serialize byte-identically
  // (the store's incremental publish leans on this).
  ScoringSnapshot baked = MakeSnapshot(11);
  const std::string path_baked = TempPath("snap_baked.bin");
  const std::string path_adopted = TempPath("snap_adopted.bin");
  ASSERT_TRUE(baked.Save(path_baked).ok());
  ASSERT_TRUE(adopted.value().Save(path_adopted).ok());
  const std::string bytes_baked = ReadFileBytes(path_baked);
  const std::string bytes_adopted = ReadFileBytes(path_adopted);
  ASSERT_EQ(bytes_baked.size(), bytes_adopted.size());
  EXPECT_EQ(std::memcmp(bytes_baked.data(), bytes_adopted.data(),
                        bytes_baked.size()),
            0);
}

TEST(ScoringSnapshotTest, FromPartsWithInfluenceRejectsWrongLength) {
  auto short_vec = ScoringSnapshot::FromPartsWithInfluence(
      MakeDiscriminator(1), MakeFeatures(1), MakeWalk(), MakeLabels(),
      std::vector<double>(kNodes - 1, 0.0));
  ASSERT_FALSE(short_vec.ok());
  EXPECT_EQ(short_vec.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ScoringSnapshotTest, SaveLoadRoundTripIsByteIdentical) {
  ScoringSnapshot snap = MakeSnapshot();
  const std::string path_a = TempPath("snap_a.bin");
  const std::string path_b = TempPath("snap_b.bin");
  ASSERT_TRUE(snap.Save(path_a).ok());

  auto loaded = ScoringSnapshot::Load(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ScoringSnapshot& back = loaded.value();

  // Field-level identity.
  ASSERT_EQ(back.num_nodes(), snap.num_nodes());
  ASSERT_EQ(back.feature_dim(), snap.feature_dim());
  EXPECT_EQ(std::memcmp(back.features().RowPtr(0), snap.features().RowPtr(0),
                        kNodes * kDim * sizeof(double)),
            0);
  EXPECT_EQ(back.example_labels(), snap.example_labels());
  EXPECT_EQ(back.error_influence(), snap.error_influence());
  EXPECT_EQ(back.ppr_alpha(), snap.ppr_alpha());
  ASSERT_EQ(back.discriminator().weights.size(),
            snap.discriminator().weights.size());
  EXPECT_EQ(back.discriminator().leaky_slope,
            snap.discriminator().leaky_slope);
  ASSERT_EQ(back.walk().nnz(), snap.walk().nnz());
  for (size_t k = 0; k < snap.walk().nnz(); ++k) {
    ASSERT_EQ(back.walk().ColIndex(k), snap.walk().ColIndex(k));
    ASSERT_EQ(back.walk().Value(k), snap.walk().Value(k));
  }

  // Byte-level identity: saving the loaded snapshot reproduces the file.
  ASSERT_TRUE(back.Save(path_b).ok());
  const std::string bytes_a = ReadFileBytes(path_a);
  const std::string bytes_b = ReadFileBytes(path_b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(std::memcmp(bytes_a.data(), bytes_b.data(), bytes_a.size()), 0);

  // And the reloaded snapshot scores identically.
  SnapshotScorer scorer_a(&snap, 4);
  SnapshotScorer scorer_b(&back, 4);
  std::vector<size_t> nodes{0, 13, 39};
  std::vector<NodeScore> sa(3);
  std::vector<NodeScore> sb(3);
  scorer_a.ScoreInto(nodes, sa.data());
  scorer_b.ScoreInto(nodes, sb.data());
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), 3 * sizeof(NodeScore)), 0);
}

// The saved bytes of MakeSnapshot(), pinned by size and FNV-1a. A change
// to the container or the payload layout moves them, and then needs a
// kFormatVersion bump, not a new golden.
TEST(ScoringSnapshotTest, SavedBytesGolden) {
  const std::string path = TempPath("snap_golden.bin");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  EXPECT_EQ(bytes.size(), 6696u);
  EXPECT_EQ(util::Fnv1aHash(bytes), 0x9b687e19f076084dULL);
}

TEST(ScoringSnapshotTest, LoadRejectsMissingFile) {
  auto missing = ScoringSnapshot::Load(TempPath("does_not_exist.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(ScoringSnapshotTest, LoadRejectsTruncatedFile) {
  ScoringSnapshot snap = MakeSnapshot();
  const std::string path = TempPath("snap_trunc.bin");
  ASSERT_TRUE(snap.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes.resize(bytes.size() / 2);
  WriteFileBytes(path, bytes);
  auto truncated = ScoringSnapshot::Load(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), util::StatusCode::kDataLoss);

  // Shorter than even the header.
  bytes.resize(4);
  WriteFileBytes(path, bytes);
  auto stub = ScoringSnapshot::Load(path);
  ASSERT_FALSE(stub.ok());
  EXPECT_EQ(stub.status().code(), util::StatusCode::kDataLoss);
}

TEST(ScoringSnapshotTest, LoadRejectsBitFlips) {
  ScoringSnapshot snap = MakeSnapshot();
  const std::string path = TempPath("snap_flip.bin");
  ASSERT_TRUE(snap.Save(path).ok());
  const std::string original = ReadFileBytes(path);

  // Flip one bit in a few payload positions; the checksum must catch all.
  for (size_t pos : {size_t{48}, original.size() / 2, original.size() - 1}) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    WriteFileBytes(path, bytes);
    auto corrupt = ScoringSnapshot::Load(path);
    ASSERT_FALSE(corrupt.ok()) << "flip at " << pos;
    EXPECT_EQ(corrupt.status().code(), util::StatusCode::kDataLoss)
        << "flip at " << pos;
  }

  // Bad magic is also kDataLoss.
  std::string bytes = original;
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto bad_magic = ScoringSnapshot::Load(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), util::StatusCode::kDataLoss);
}

TEST(ScoringSnapshotTest, LoadRejectsFutureFormatVersion) {
  ScoringSnapshot snap = MakeSnapshot();
  const std::string path = TempPath("snap_version.bin");
  ASSERT_TRUE(snap.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The version field sits right after the 8-byte magic.
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  ASSERT_EQ(version, ScoringSnapshot::kFormatVersion);
  version = ScoringSnapshot::kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  WriteFileBytes(path, bytes);
  auto future = ScoringSnapshot::Load(path);
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), util::StatusCode::kFailedPrecondition);
}

// Every cut of a saved file, from empty to one byte short, is kDataLoss:
// a snapshot is exactly one complete record.
TEST(ScoringSnapshotTest, LoadRejectsEveryTruncation) {
  const std::string path = TempPath("snap_every_cut.bin");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string original = ReadFileBytes(path);
  for (size_t keep = 0; keep < original.size(); ++keep) {
    WriteFileBytes(path, original.substr(0, keep));
    auto cut = ScoringSnapshot::Load(path);
    ASSERT_FALSE(cut.ok()) << "cut at " << keep;
    ASSERT_EQ(cut.status().code(), util::StatusCode::kDataLoss)
        << "cut at " << keep << ": " << cut.status();
  }
}

// One flipped bit anywhere is caught: in the version field (bytes 8-11)
// as version skew, everywhere else as kDataLoss — the magic and the
// reserved flags by the header check, the frame and the payload by the
// checksum (an FNV-1a step is a bijection on its state, so any one-byte
// change to the payload changes the checksum).
TEST(ScoringSnapshotTest, LoadRejectsEveryByteFlip) {
  const std::string path = TempPath("snap_every_flip.bin");
  ASSERT_TRUE(MakeSnapshot().Save(path).ok());
  const std::string original = ReadFileBytes(path);
  for (size_t pos = 0; pos < original.size(); ++pos) {
    std::string bytes = original;
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << (pos % 8)));
    WriteFileBytes(path, bytes);
    auto flipped = ScoringSnapshot::Load(path);
    const util::StatusCode want = pos >= 8 && pos < 12
                                      ? util::StatusCode::kFailedPrecondition
                                      : util::StatusCode::kDataLoss;
    ASSERT_FALSE(flipped.ok()) << "flip at " << pos;
    ASSERT_EQ(flipped.status().code(), want)
        << "flip at " << pos << ": " << flipped.status();
  }
}

// Save writes a temporary file beside the target and renames it over the
// target, so a Save that fails leaves the previous snapshot intact.
TEST(ScoringSnapshotTest, FailedSaveKeepsThePreviousFile) {
  const std::string path = TempPath("snap_atomic.bin");
  ASSERT_TRUE(MakeSnapshot(11).Save(path).ok());
  const std::string before = ReadFileBytes(path);

  // A directory where the temporary file would go makes the write fail.
  ASSERT_TRUE(std::filesystem::create_directory(path + ".tmp"));
  const util::Status blocked = MakeSnapshot(12).Save(path);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.code(), util::StatusCode::kInternal) << blocked;
  EXPECT_EQ(ReadFileBytes(path), before);
  ASSERT_TRUE(ScoringSnapshot::Load(path).ok());

  // Once the name is free again, Save replaces the file and leaves no
  // temporary behind.
  ASSERT_TRUE(std::filesystem::remove(path + ".tmp"));
  ASSERT_TRUE(MakeSnapshot(12).Save(path).ok());
  EXPECT_NE(ReadFileBytes(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace gale::serve
