#include "core/query_selector.h"

#include <set>

#include <gtest/gtest.h>

#include "core/sgan.h"
#include "prop/label_propagation.h"

namespace gale::core {
namespace {

struct Fixture {
  la::SparseMatrix walk;
  la::Matrix embeddings;
  std::vector<int> labels;
  la::Matrix probs;
};

// 30 nodes in 3 well-separated blobs of 10; a ring topology per blob.
Fixture MakeFixture(uint64_t seed = 1) {
  Fixture f;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < 10; ++i) {
      edges.emplace_back(b * 10 + i, b * 10 + (i + 1) % 10);
    }
  }
  f.walk = la::SparseMatrix::NormalizedAdjacency(30, edges);
  util::Rng rng(seed);
  f.embeddings = la::Matrix(30, 2);
  const double centers[3][2] = {{0, 0}, {20, 0}, {0, 20}};
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < 10; ++i) {
      f.embeddings.At(b * 10 + i, 0) = centers[b][0] + rng.Normal(0, 0.5);
      f.embeddings.At(b * 10 + i, 1) = centers[b][1] + rng.Normal(0, 0.5);
    }
  }
  f.labels.assign(30, kUnlabeled);
  f.probs = la::Matrix(30, 2, 0.5);
  return f;
}

QuerySelectorOptions Options(QueryStrategy strategy, bool memo = true) {
  QuerySelectorOptions o;
  o.strategy = strategy;
  o.memoization = memo;
  o.seed = 9;
  return o;
}

TEST(QuerySelectorTest, StrategyNames) {
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kGale), "GALE");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kRandom), "GALE(-Ran.)");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kEntropy), "GALE(-Ent.)");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kKmeans), "GALE(-Kme.)");
}

TEST(QuerySelectorTest, RejectsBadInputs) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kRandom));
  EXPECT_FALSE(selector.Select(la::Matrix(), f.labels, f.probs, 3).ok());
  std::vector<int> wrong(5, kUnlabeled);
  EXPECT_FALSE(selector.Select(f.embeddings, wrong, f.probs, 3).ok());
}

TEST(QuerySelectorTest, NoUnlabeledLeftIsFailedPrecondition) {
  Fixture f = MakeFixture();
  std::fill(f.labels.begin(), f.labels.end(), kLabelCorrect);
  QuerySelector selector(&f.walk, Options(QueryStrategy::kRandom));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

class AllStrategiesTest : public ::testing::TestWithParam<QueryStrategy> {};

TEST_P(AllStrategiesTest, SelectsKDistinctUnlabeledNodes) {
  Fixture f = MakeFixture();
  // Label a few nodes; they must never be selected.
  f.labels[0] = kLabelError;
  f.labels[15] = kLabelCorrect;
  QuerySelector selector(&f.walk, Options(GetParam()));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 6);
  ASSERT_TRUE(result.ok());
  const std::vector<size_t>& q = result.value();
  EXPECT_EQ(q.size(), 6u);
  std::set<size_t> unique(q.begin(), q.end());
  EXPECT_EQ(unique.size(), 6u);
  for (size_t v : q) {
    EXPECT_NE(v, 0u);
    EXPECT_NE(v, 15u);
    EXPECT_LT(v, 30u);
  }
}

TEST_P(AllStrategiesTest, KLargerThanPoolReturnsAll) {
  Fixture f = MakeFixture();
  for (size_t v = 0; v < 25; ++v) f.labels[v] = kLabelCorrect;
  QuerySelector selector(&f.walk, Options(GetParam()));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 50);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, AllStrategiesTest,
                         ::testing::Values(QueryStrategy::kGale,
                                           QueryStrategy::kRandom,
                                           QueryStrategy::kEntropy,
                                           QueryStrategy::kKmeans));

// soft_labels() is the annotator's L_s whatever the strategy: label
// propagation from the examples of the last Select at the selector's
// ppr_alpha, and all kUnlabeled while there is no example.
class SoftLabelsTest : public ::testing::TestWithParam<QueryStrategy> {};

TEST_P(SoftLabelsTest, PropagatesTheExamplesAtPprAlpha) {
  Fixture f = MakeFixture();
  QuerySelectorOptions options = Options(GetParam());
  options.ppr_alpha = 0.3;
  QuerySelector selector(&f.walk, options);
  const std::vector<int> none(30, kUnlabeled);

  ASSERT_TRUE(selector.Select(f.embeddings, f.labels, f.probs, 3).ok());
  EXPECT_EQ(selector.soft_labels(), none);

  // Seeds in the first two blobs; the third ring is reachable from none.
  // Node 6 sits between the two error seeds {0, 1} and the correct seed 3
  // on the first ring: it is an error at the default alpha 0.15 and
  // correct at 0.3, so the check sees which alpha the selector used.
  f.labels[0] = kLabelError;
  f.labels[1] = kLabelError;
  f.labels[3] = kLabelCorrect;
  f.labels[12] = kLabelCorrect;
  ASSERT_TRUE(selector.Select(f.embeddings, f.labels, f.probs, 3).ok());
  const util::Result<la::Matrix> soft = prop::PropagateLabels(
      f.walk, f.labels, 2, prop::LabelPropagationOptions{.alpha = 0.3});
  ASSERT_TRUE(soft.ok());
  const std::vector<int> expected =
      prop::HardLabels(soft.value(), kUnlabeled);
  EXPECT_EQ(selector.soft_labels(), expected);
  EXPECT_EQ(expected[6], kLabelCorrect);
  EXPECT_EQ(prop::HardLabels(
                prop::PropagateLabels(f.walk, f.labels, 2).value(),
                kUnlabeled)[6],
            kLabelError);
  EXPECT_EQ(expected[9], kLabelError);
  EXPECT_EQ(expected[15], kLabelCorrect);
  EXPECT_EQ(expected[25], kUnlabeled);

  // Dropping the examples resets L_s rather than keeping the last round's.
  f.labels.assign(30, kUnlabeled);
  ASSERT_TRUE(selector.Select(f.embeddings, f.labels, f.probs, 3).ok());
  EXPECT_EQ(selector.soft_labels(), none);
}

INSTANTIATE_TEST_SUITE_P(Strategies, SoftLabelsTest,
                         ::testing::Values(QueryStrategy::kGale,
                                           QueryStrategy::kRandom));

TEST(QuerySelectorTest, EntropyPicksMostUncertainNodes) {
  Fixture f = MakeFixture();
  // All confident except nodes 3, 17, 25.
  for (size_t v = 0; v < 30; ++v) {
    f.probs.At(v, 0) = 0.99;
    f.probs.At(v, 1) = 0.01;
  }
  for (size_t v : {3u, 17u, 25u}) {
    f.probs.At(v, 0) = 0.5;
    f.probs.At(v, 1) = 0.5;
  }
  QuerySelector selector(&f.walk, Options(QueryStrategy::kEntropy));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 3);
  ASSERT_TRUE(result.ok());
  std::set<size_t> q(result.value().begin(), result.value().end());
  EXPECT_EQ(q, (std::set<size_t>{3, 17, 25}));
}

TEST(QuerySelectorTest, EntropyColdStartFallsBackToRandom) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kEntropy));
  auto result = selector.Select(f.embeddings, f.labels, la::Matrix(), 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 5u);
}

TEST(QuerySelectorTest, KmeansCoversAllBlobs) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kKmeans));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 3);
  ASSERT_TRUE(result.ok());
  std::set<size_t> blobs;
  for (size_t v : result.value()) blobs.insert(v / 10);
  EXPECT_EQ(blobs.size(), 3u) << "one pick per well-separated blob";
}

TEST(QuerySelectorTest, GaleSelectionIsDiverse) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kGale));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 6);
  ASSERT_TRUE(result.ok());
  // Diversified typicality must not collapse into a single blob.
  std::set<size_t> blobs;
  for (size_t v : result.value()) blobs.insert(v / 10);
  EXPECT_GE(blobs.size(), 2u);
}

TEST(QuerySelectorTest, GreedyPrefixTypicalityIsRecorded) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kGale));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 4);
  ASSERT_TRUE(result.ok());
  const auto& prefix = selector.telemetry().typicality_by_prefix;
  ASSERT_EQ(prefix.size(), 4u);
  // Cumulative typicality is nondecreasing in |Q|.
  double prev = 0.0;
  for (const auto& [size, typ] : prefix) {
    EXPECT_GE(typ, prev);
    prev = typ;
  }
}

TEST(QuerySelectorTest, UGaleModeNeverCaches) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kGale, false));
  ASSERT_TRUE(selector.Select(f.embeddings, f.labels, f.probs, 5).ok());
  ASSERT_TRUE(selector.Select(f.embeddings, f.labels, f.probs, 5).ok());
  EXPECT_EQ(selector.ppr().num_cached_rows(), 0u);
}

TEST(QuerySelectorTest, DeterministicUnderSeed) {
  Fixture f = MakeFixture();
  QuerySelector a(&f.walk, Options(QueryStrategy::kGale));
  QuerySelector b(&f.walk, Options(QueryStrategy::kGale));
  auto qa = a.Select(f.embeddings, f.labels, f.probs, 6);
  auto qb = b.Select(f.embeddings, f.labels, f.probs, 6);
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  EXPECT_EQ(qa.value(), qb.value());
}

TEST(QuerySelectorTest, ZeroBudgetIsEmpty) {
  Fixture f = MakeFixture();
  QuerySelector selector(&f.walk, Options(QueryStrategy::kGale));
  auto result = selector.Select(f.embeddings, f.labels, f.probs, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

}  // namespace
}  // namespace gale::core
