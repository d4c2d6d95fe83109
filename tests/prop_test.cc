// Tests for personalized PageRank and label propagation.

#include <cmath>
#include <cstring>
#include <string_view>

#include <gtest/gtest.h>

#include "prop/label_propagation.h"
#include "prop/ppr.h"
#include "util/string_util.h"

namespace gale::prop {
namespace {

la::SparseMatrix PathGraph(size_t n) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return la::SparseMatrix::NormalizedAdjacency(n, edges);
}

TEST(PprTest, RowIsAProbabilityLikeVector) {
  la::SparseMatrix walk = PathGraph(6);
  PprEngine ppr(&walk);
  const std::vector<double>& row = ppr.Row(2);
  ASSERT_EQ(row.size(), 6u);
  double sum = 0.0;
  for (double p : row) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  // The symmetric-normalized operator is not stochastic (row sums of S
  // can exceed 1 toward low-degree neighbors), so P's rows are influence
  // vectors rather than exact distributions — but they stay near 1.
  EXPECT_LE(sum, 1.3);
  EXPECT_GT(sum, 0.5);
}

TEST(PprTest, SourceHasLargestMassAndDecaysWithDistance) {
  la::SparseMatrix walk = PathGraph(9);
  PprEngine ppr(&walk);
  const std::vector<double>& row = ppr.Row(4);
  EXPECT_GT(row[4], row[3]);
  EXPECT_GT(row[3], row[2]);
  EXPECT_GT(row[2], row[1]);
  EXPECT_GT(row[5], row[7]);
}

TEST(PprTest, SymmetryOnSymmetricOperator) {
  // P = alpha (I - (1-alpha) S)^{-1} is symmetric when S is.
  la::SparseMatrix walk = PathGraph(7);
  PprEngine ppr(&walk);
  EXPECT_NEAR(ppr.Row(1)[5], ppr.Row(5)[1], 1e-6);
  EXPECT_NEAR(ppr.Row(0)[3], ppr.Row(3)[0], 1e-6);
}

TEST(PprTest, MatchesClosedFormOnTinyGraph) {
  // Two nodes, one edge: S = [[.5, .5], [.5, .5]].
  // P = a (I - (1-a) S)^{-1}. For a = 0.15 solve by hand.
  la::SparseMatrix walk =
      la::SparseMatrix::NormalizedAdjacency(2, {{0, 1}});
  PprOptions options;
  options.alpha = 0.15;
  options.max_iterations = 500;
  options.tolerance = 1e-14;
  PprEngine ppr(&walk, options);
  const double a = 0.15;
  const double b = (1 - a) * 0.5;  // each entry of (1-a)S
  // (I - (1-a)S) = [[1-b, -b], [-b, 1-b]]; inverse = 1/det [[1-b, b],[b, 1-b]]
  const double det = (1 - b) * (1 - b) - b * b;
  const double p00 = a * (1 - b) / det;
  const double p01 = a * b / det;
  const std::vector<double>& row = ppr.Row(0);
  EXPECT_NEAR(row[0], p00, 1e-9);
  EXPECT_NEAR(row[1], p01, 1e-9);
}

TEST(PprTest, CachingCountsRows) {
  la::SparseMatrix walk = PathGraph(5);
  PprEngine ppr(&walk);
  EXPECT_FALSE(ppr.IsCached(2));
  ppr.Row(2);
  EXPECT_TRUE(ppr.IsCached(2));
  EXPECT_EQ(ppr.num_computed_rows(), 1u);
  ppr.Row(2);  // hit
  EXPECT_EQ(ppr.num_computed_rows(), 1u);
  ppr.Row(3);
  EXPECT_EQ(ppr.num_computed_rows(), 2u);
  EXPECT_EQ(ppr.num_cached_rows(), 2u);
}

TEST(PprTest, BatchPrefetchCountsEachRowOnce) {
  // 70 distinct even seeds span two batches (64 + 6); the duplicates
  // collapse, including one whose first copy sits in the other batch.
  la::SparseMatrix walk = PathGraph(150);
  std::vector<size_t> seeds;
  for (size_t v = 0; v < 140; v += 2) seeds.push_back(v);
  seeds.push_back(2);
  seeds.push_back(130);
  PprEngine ppr(&walk);
  ppr.ComputeRows(seeds);
  EXPECT_EQ(ppr.num_computed_rows(), 70u);
  EXPECT_EQ(ppr.num_cached_rows(), 70u);
  for (size_t v = 0; v < 140; v += 2) EXPECT_TRUE(ppr.IsCached(v));
  EXPECT_FALSE(ppr.IsCached(1));
  EXPECT_FALSE(ppr.IsCached(140));
}

TEST(PprTest, EvictRowsDropsOnlyTheNamedSeeds) {
  la::SparseMatrix walk = PathGraph(8);
  PprEngine ppr(&walk);
  ppr.ComputeRows(std::vector<size_t>{1, 3, 5});
  EXPECT_EQ(ppr.num_cached_rows(), 3u);

  // Evicting a mix of cached and never-cached seeds drops exactly the
  // cached ones; the computed counter keeps its generation total.
  ppr.EvictRows(std::vector<size_t>{3, 6});
  EXPECT_EQ(ppr.num_cached_rows(), 2u);
  EXPECT_TRUE(ppr.IsCached(1));
  EXPECT_FALSE(ppr.IsCached(3));
  EXPECT_TRUE(ppr.IsCached(5));
  EXPECT_EQ(ppr.num_computed_rows(), 3u);
}

TEST(PprTest, RowAfterEvictionIsBitwiseIdentical) {
  la::SparseMatrix walk = PathGraph(8);
  PprEngine ppr(&walk);
  const std::vector<double> before = ppr.Row(4);  // copy before eviction
  ppr.ComputeRows(std::vector<size_t>{2, 6});

  ppr.EvictRows(std::vector<size_t>{4});
  EXPECT_FALSE(ppr.IsCached(4));
  // The recomputed row lands in 4's recycled slot and must be the exact
  // same bytes — eviction is cache churn, never a numeric event.
  const std::vector<double>& after = ppr.Row(4);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        before.size() * sizeof(double)),
            0);
  // Untouched seeds kept their rows through the eviction.
  EXPECT_TRUE(ppr.IsCached(2));
  EXPECT_TRUE(ppr.IsCached(6));
}

TEST(PprTest, EvictedSlotsAreRecycledBeforeGrowth) {
  la::SparseMatrix walk = PathGraph(10);
  PprEngine ppr(&walk);
  ppr.ComputeRows(std::vector<size_t>{0, 1, 2, 3});
  ppr.EvictRows(std::vector<size_t>{1, 2});
  EXPECT_EQ(ppr.num_cached_rows(), 2u);
  // Two inserts refill the freed slots, the third grows the cache.
  ppr.ComputeRows(std::vector<size_t>{5, 6, 7});
  EXPECT_EQ(ppr.num_cached_rows(), 5u);
  for (size_t v : {0u, 3u, 5u, 6u, 7u}) EXPECT_TRUE(ppr.IsCached(v));
  for (size_t v : {1u, 2u}) EXPECT_FALSE(ppr.IsCached(v));
}

TEST(PprTest, DisabledCacheRecomputes) {
  la::SparseMatrix walk = PathGraph(5);
  PprOptions options;
  options.cache_rows = false;
  PprEngine ppr(&walk, options);
  ppr.Row(1);
  ppr.Row(1);
  EXPECT_EQ(ppr.num_computed_rows(), 2u);
  EXPECT_EQ(ppr.num_cached_rows(), 0u);
}

TEST(LabelPropagationTest, RejectsBadInputs) {
  la::SparseMatrix walk = PathGraph(4);
  EXPECT_FALSE(PropagateLabels(walk, {0, 1}, 2).ok()) << "size mismatch";
  EXPECT_FALSE(PropagateLabels(walk, {0, 1, 0, 1}, 0).ok());
}

TEST(LabelPropagationTest, SeedsKeepTheirLabels) {
  la::SparseMatrix walk = PathGraph(7);
  std::vector<int> labels = {0, -1, -1, -1, -1, -1, 1};
  auto soft = PropagateLabels(walk, labels, 2);
  ASSERT_TRUE(soft.ok());
  std::vector<int> hard = HardLabels(soft.value(), -1);
  EXPECT_EQ(hard[0], 0);
  EXPECT_EQ(hard[6], 1);
}

TEST(LabelPropagationTest, LabelsSplitAtTheMiddle) {
  la::SparseMatrix walk = PathGraph(9);
  std::vector<int> labels(9, -1);
  labels[0] = 0;
  labels[8] = 1;
  auto soft = PropagateLabels(walk, labels, 2);
  ASSERT_TRUE(soft.ok());
  std::vector<int> hard = HardLabels(soft.value(), -1);
  EXPECT_EQ(hard[1], 0);
  EXPECT_EQ(hard[2], 0);
  EXPECT_EQ(hard[6], 1);
  EXPECT_EQ(hard[7], 1);
}

TEST(LabelPropagationTest, UnreachableNodesFallBack) {
  // Disconnected pair {3, 4}: no seed reaches them.
  la::SparseMatrix walk = la::SparseMatrix::NormalizedAdjacency(
      5, {{0, 1}, {1, 2}, {3, 4}});
  std::vector<int> labels = {0, -1, -1, -1, -1};
  auto soft = PropagateLabels(walk, labels, 2);
  ASSERT_TRUE(soft.ok());
  std::vector<int> hard = HardLabels(soft.value(), -7);
  EXPECT_EQ(hard[3], -7);
  EXPECT_EQ(hard[4], -7);
  EXPECT_EQ(hard[1], 0);
}

TEST(LabelPropagationTest, GoldenBits) {
  // Pins the soft labels bit for bit at 2 classes (the selector's width)
  // and at 15 (the gather's 8-wide, 4-wide and leftover columns), on a
  // ring with chords and a hub; every seventh node is a seed.
  constexpr size_t kNodes = 211;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < kNodes; ++v) {
    edges.emplace_back(v, (v + 1) % kNodes);
    if (v % 5 == 0) edges.emplace_back(v, (v + 37) % kNodes);
    if (v % 4 == 2) edges.emplace_back(3, v);
  }
  la::SparseMatrix walk = la::SparseMatrix::NormalizedAdjacency(kNodes, edges);
  const std::pair<size_t, uint64_t> goldens[] = {
      {2, 0xa184620e25e3044eULL}, {15, 0x9c6a876463004616ULL}};
  for (const auto& [num_classes, golden] : goldens) {
    std::vector<int> labels(kNodes, -1);
    for (size_t v = 0; v < kNodes; v += 7) {
      labels[v] = static_cast<int>((v / 7) % num_classes);
    }
    auto soft = PropagateLabels(walk, labels, num_classes);
    ASSERT_TRUE(soft.ok());
    const la::Matrix& f = soft.value();
    const uint64_t hash = util::Fnv1aHash(std::string_view(
        reinterpret_cast<const char*>(f.data().data()),
        f.size() * sizeof(double)));
    EXPECT_EQ(hash, golden) << num_classes << " classes: 0x" << std::hex
                            << hash;
  }
}

TEST(LabelPropagationTest, MissingClassColumnStaysZero) {
  la::SparseMatrix walk = PathGraph(4);
  std::vector<int> labels = {0, -1, -1, 0};  // no class-1 seed
  auto soft = PropagateLabels(walk, labels, 2);
  ASSERT_TRUE(soft.ok());
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(soft.value().At(v, 1), 0.0);
  }
}

}  // namespace
}  // namespace gale::prop
