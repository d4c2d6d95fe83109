#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "la/kmeans.h"
#include "la/pca.h"
#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale::la {
namespace {

TEST(PcaTest, RejectsEmptyInput) {
  Pca pca(2);
  EXPECT_FALSE(pca.Fit(Matrix()).ok());
}

TEST(PcaTest, RecoversDominantDirection) {
  // Points along the diagonal y = x with tiny orthogonal noise: the first
  // principal component must align with (1,1)/sqrt(2).
  util::Rng rng(1);
  Matrix data(400, 2);
  for (size_t i = 0; i < 400; ++i) {
    const double t = rng.Normal(0.0, 3.0);
    const double noise = rng.Normal(0.0, 0.05);
    data.At(i, 0) = t + noise;
    data.At(i, 1) = t - noise;
  }
  Pca pca(2);
  ASSERT_TRUE(pca.Fit(data).ok());
  ASSERT_EQ(pca.explained_variance().size(), 2u);
  EXPECT_GT(pca.explained_variance()[0], 10.0);
  EXPECT_LT(pca.explained_variance()[1], 0.1);

  // Projection onto PC1 must preserve nearly all variance.
  Matrix reduced = pca.Transform(data);
  double var0 = 0.0;
  for (size_t i = 0; i < reduced.rows(); ++i) {
    var0 += reduced.At(i, 0) * reduced.At(i, 0);
  }
  var0 /= static_cast<double>(reduced.rows());
  EXPECT_NEAR(var0, pca.explained_variance()[0], 0.5);
}

TEST(PcaTest, TransformCentersData) {
  Matrix data = Matrix::FromRows({{10, 0}, {12, 0}, {14, 0}});
  Pca pca(1);
  ASSERT_TRUE(pca.Fit(data).ok());
  Matrix reduced = pca.Transform(data);
  double sum = 0.0;
  for (size_t i = 0; i < reduced.rows(); ++i) sum += reduced.At(i, 0);
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(PcaTest, ComponentCapAtInputDim) {
  Matrix data = Matrix::FromRows({{1, 2}, {2, 4}, {3, 5}});
  Pca pca(10);
  ASSERT_TRUE(pca.Fit(data).ok());
  EXPECT_EQ(pca.num_components(), 2u);
  EXPECT_EQ(pca.Transform(data).cols(), 2u);
}

TEST(PcaTest, FitTransformEqualsFitThenTransform) {
  util::Rng rng(3);
  Matrix data = Matrix::RandomNormal(50, 6, 1.0, rng);
  Pca a(3);
  Pca b(3);
  ASSERT_TRUE(a.Fit(data).ok());
  Matrix t1 = a.Transform(data);
  auto t2 = b.FitTransform(data);
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t1.AllClose(t2.value(), 1e-9));
}

Matrix ThreeBlobs(util::Rng& rng, size_t per_blob) {
  Matrix data(per_blob * 3, 2);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      data.At(b * per_blob + i, 0) = centers[b][0] + rng.Normal(0.0, 0.5);
      data.At(b * per_blob + i, 1) = centers[b][1] + rng.Normal(0.0, 0.5);
    }
  }
  return data;
}

TEST(KMeansTest, SeparatesWellSeparatedBlobs) {
  util::Rng rng(5);
  Matrix data = ThreeBlobs(rng, 50);
  auto result = KMeans(data, {.num_clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  const KMeansResult& km = result.value();
  // All members of a blob share an assignment, and the three blobs get
  // three distinct clusters.
  for (size_t b = 0; b < 3; ++b) {
    const size_t first = km.assignments[b * 50];
    for (size_t i = 1; i < 50; ++i) {
      EXPECT_EQ(km.assignments[b * 50 + i], first);
    }
  }
  EXPECT_NE(km.assignments[0], km.assignments[50]);
  EXPECT_NE(km.assignments[50], km.assignments[100]);
  EXPECT_NE(km.assignments[0], km.assignments[100]);
}

TEST(KMeansTest, DistancesAreEuclidean) {
  util::Rng rng(6);
  Matrix data = ThreeBlobs(rng, 30);
  auto result = KMeans(data, {.num_clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  const KMeansResult& km = result.value();
  for (size_t i = 0; i < data.rows(); ++i) {
    const double expected = std::sqrt(
        data.RowDistanceSquared(i, km.centroids, km.assignments[i]));
    EXPECT_NEAR(km.distances[i], expected, 1e-9);
  }
}

TEST(KMeansTest, InertiaIsSumOfSquaredDistances) {
  util::Rng rng(7);
  Matrix data = ThreeBlobs(rng, 20);
  auto result = KMeans(data, {.num_clusters = 3}, rng);
  ASSERT_TRUE(result.ok());
  double sum = 0.0;
  for (double d : result.value().distances) sum += d * d;
  EXPECT_NEAR(result.value().inertia, sum, 1e-6);
}

TEST(KMeansTest, MoreClustersThanPoints) {
  util::Rng rng(8);
  Matrix data = Matrix::FromRows({{0, 0}, {1, 1}});
  auto result = KMeans(data, {.num_clusters = 10}, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().centroids.rows(), 2u);
}

TEST(KMeansTest, RejectsDegenerateInputs) {
  util::Rng rng(9);
  EXPECT_FALSE(KMeans(Matrix(), {.num_clusters = 2}, rng).ok());
  Matrix data = Matrix::FromRows({{1, 2}});
  EXPECT_FALSE(KMeans(data, {.num_clusters = 0}, rng).ok());
}

// Lloyd's k-means written with one Matrix::RowDistanceSquared call per
// (point, centroid) pair: KMeans' loop before its distances moved into
// lane panels. Seeding, the per-shard partial sums (same grain as
// kmeans.cc, combined in shard order), empty-cluster reseeding and the
// stopping rule are KMeans' own, so the two must agree bit for bit.
KMeansResult ReferenceKMeans(const Matrix& data, size_t k, util::Rng& rng) {
  constexpr size_t kGrain = 256;
  const KMeansOptions options;
  const size_t n = data.rows();
  const size_t d = data.cols();
  KMeansResult result;
  std::vector<size_t> chosen = {static_cast<size_t>(rng.UniformInt(n))};
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  while (chosen.size() < k) {
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i],
                             data.RowDistanceSquared(i, data, chosen.back()));
    }
    chosen.push_back(rng.Categorical(min_dist));
  }
  result.centroids = data.SelectRows(chosen);
  result.assignments.assign(n, 0);
  result.distances.assign(n, 0.0);
  const size_t num_shards = util::NumReduceShards(n, kGrain);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    std::vector<Matrix> sums(num_shards, Matrix(k, d));
    std::vector<std::vector<size_t>> counts(num_shards,
                                            std::vector<size_t>(k, 0));
    std::vector<uint8_t> shard_changed(num_shards, 0);
    util::ParallelForShards(0, n, kGrain, [&](size_t s, size_t i0,
                                               size_t i1) {
      for (size_t i = i0; i < i1; ++i) {
        size_t best = 0;
        double best_dist = std::numeric_limits<double>::max();
        for (size_t c = 0; c < k; ++c) {
          const double dist = data.RowDistanceSquared(i, result.centroids, c);
          if (dist < best_dist) {
            best_dist = dist;
            best = c;
          }
        }
        if (result.assignments[i] != best) shard_changed[s] = 1;
        result.assignments[i] = best;
        result.distances[i] = best_dist;
        counts[s][best] += 1;
        for (size_t j = 0; j < d; ++j) sums[s].At(best, j) += data.At(i, j);
      }
    });
    bool changed = false;
    Matrix centroids(k, d);
    std::vector<size_t> total(k, 0);
    for (size_t s = 0; s < num_shards; ++s) {
      if (shard_changed[s]) changed = true;
      centroids += sums[s];
      for (size_t c = 0; c < k; ++c) total[c] += counts[s][c];
    }
    double movement = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (total[c] == 0) {
        const size_t far = static_cast<size_t>(
            std::max_element(result.distances.begin(),
                             result.distances.end()) -
            result.distances.begin());
        for (size_t j = 0; j < d; ++j) centroids.At(c, j) = data.At(far, j);
        changed = true;
      } else {
        for (size_t j = 0; j < d; ++j) {
          centroids.At(c, j) /= static_cast<double>(total[c]);
        }
      }
      movement += centroids.RowDistanceSquared(c, result.centroids, c);
    }
    result.centroids = centroids;
    if (!changed || movement < options.tolerance) break;
  }
  for (double& dist : result.distances) dist = std::sqrt(dist);
  return result;
}

TEST(KMeansTest, LanePanelsMatchRowDistanceReference) {
  // 600 points make three reduce shards; 2500 x 24 is the selector's shape
  // on the detect workload. k = 7 and 8 end on a partial and a full lane
  // panel, k = 40 spans five panels.
  const std::vector<la::simd::Isa> isas = la::simd::SupportedIsas();
  for (const auto& [n, d] : {std::pair<size_t, size_t>{600, 5}, {2500, 24}}) {
    util::Rng data_rng(n + d);
    const Matrix data = Matrix::RandomNormal(n, d, 1.0, data_rng);
    for (size_t k : {1u, 7u, 8u, 40u}) {
      util::Rng ref_rng(k);
      const KMeansResult expect = ReferenceKMeans(data, k, ref_rng);
      for (la::simd::Isa isa : isas) {
        la::simd::ScopedIsaOverride pin(isa);
        util::Rng rng(k);
        auto result = KMeans(data, {.num_clusters = k}, rng);
        ASSERT_TRUE(result.ok());
        const KMeansResult& got = result.value();
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " d=" << d << " k=" << k << " isa="
                     << la::simd::IsaName(isa));
        EXPECT_EQ(got.iterations, expect.iterations);
        EXPECT_EQ(got.assignments, expect.assignments);
        EXPECT_EQ(0, std::memcmp(got.distances.data(), expect.distances.data(),
                                 n * sizeof(double)));
        ASSERT_EQ(got.centroids.size(), expect.centroids.size());
        EXPECT_EQ(0, std::memcmp(got.centroids.data().data(),
                                 expect.centroids.data().data(),
                                 expect.centroids.size() * sizeof(double)));
      }
    }
  }
}

class KMeansSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KMeansSweepTest, InertiaDecreasesWithMoreClusters) {
  // Property: k-means inertia is (weakly) monotone in k on fixed data.
  util::Rng data_rng(10);
  Matrix data = ThreeBlobs(data_rng, 40);
  const size_t k = GetParam();
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  auto small = KMeans(data, {.num_clusters = k}, rng_a);
  auto large = KMeans(data, {.num_clusters = k + 3}, rng_b);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LE(large.value().inertia, small.value().inertia * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, KMeansSweepTest, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace gale::la
