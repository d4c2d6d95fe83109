// Parallel results must be bitwise identical to serial: every kernel wired
// onto util::ParallelFor either writes disjoint outputs with a fixed
// per-element accumulation order, or reduces per-shard partials whose
// boundaries never depend on the thread count. This test pins that
// contract for the dense kernels, SpMM, k-means, PPR, and the full query
// selector by comparing runs at GALE_NUM_THREADS-equivalent settings of
// 1, 4, and 8 for exact equality (operator==, not AllClose).

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_selector.h"
#include "core/sgan.h"
#include "la/kmeans.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/sparse_matrix.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale {
namespace {

constexpr int kThreadCounts[] = {1, 4, 8};

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return la::Matrix::RandomNormal(rows, cols, 1.0, rng);
}

std::vector<std::pair<size_t, size_t>> RingWithChords(size_t n) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
    if (i % 3 == 0) edges.emplace_back(i, (i + n / 2) % n);
  }
  return edges;
}

// Runs `compute` under each thread count and checks the raw double
// payloads are identical to the serial run.
template <typename Fn>
void ExpectBitwiseStable(Fn compute) {
  std::vector<std::vector<double>> results;
  for (int threads : kThreadCounts) {
    util::ScopedParallelism p(threads);
    // Copy through iterators: compute() may return any contiguous double
    // container (Matrix::data() is an aligned vector type).
    const auto r = compute();
    results.emplace_back(r.begin(), r.end());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[0].size(), results[i].size());
    for (size_t j = 0; j < results[0].size(); ++j) {
      ASSERT_EQ(results[0][j], results[i][j])
          << "mismatch vs serial at element " << j << " with "
          << kThreadCounts[i] << " threads";
    }
  }
}

TEST(ParallelEquivalenceTest, MatMul) {
  const la::Matrix a = RandomMatrix(123, 77, 1);
  const la::Matrix b = RandomMatrix(77, 91, 2);
  ExpectBitwiseStable([&] { return a.MatMul(b).data(); });
}

TEST(ParallelEquivalenceTest, TransposedMatMul) {
  const la::Matrix a = RandomMatrix(123, 77, 3);
  const la::Matrix b = RandomMatrix(123, 55, 4);
  ExpectBitwiseStable([&] { return a.TransposedMatMul(b).data(); });
}

TEST(ParallelEquivalenceTest, MatMulTransposed) {
  const la::Matrix a = RandomMatrix(97, 64, 5);
  const la::Matrix b = RandomMatrix(83, 64, 6);
  ExpectBitwiseStable([&] { return a.MatMulTransposed(b).data(); });
}

TEST(ParallelEquivalenceTest, RegisterTilesAcrossThreadsAndIsas) {
  // Enough rows that shards split (and end off the 4- and 2-row tile
  // heights), columns on and off the tile widths, inner lengths with and
  // without a k tail. Every (ISA, thread count) pair must reproduce the
  // scalar, one-thread bits, signed zeros included.
  const std::vector<la::simd::Isa> isas = la::simd::SupportedIsas();
  const std::pair<size_t, size_t> shapes[] = {{7, 5},   {8, 162}, {9, 3},
                                              {24, 64}, {64, 162}, {162, 64}};
  uint64_t seed = 200;
  for (size_t rows : {5u, 33u, 130u}) {
    for (const auto& [n, k] : shapes) {
      const la::Matrix a = RandomMatrix(rows, k, ++seed);
      const la::Matrix b = RandomMatrix(k, n, ++seed);
      const la::Matrix bt = RandomMatrix(n, k, ++seed);
      la::Matrix init = RandomMatrix(rows, n, ++seed);
      for (size_t i = 0; i < init.size(); i += 3) init.data()[i] = -0.0;
      auto compute = [&] {
        const la::Matrix mm = a.MatMul(b);
        std::vector<double> flat(mm.data().begin(), mm.data().end());
        la::Matrix acc = init;
        a.MatMulInto(b, &acc, /*accumulate=*/true);
        flat.insert(flat.end(), acc.data().begin(), acc.data().end());
        const la::Matrix mt = a.MatMulTransposed(bt);
        flat.insert(flat.end(), mt.data().begin(), mt.data().end());
        return flat;
      };
      std::vector<double> reference;
      {
        la::simd::ScopedIsaOverride pin(la::simd::Isa::kScalar);
        util::ScopedParallelism p(1);
        reference = compute();
      }
      for (la::simd::Isa isa : isas) {
        la::simd::ScopedIsaOverride pin(isa);
        for (int threads : kThreadCounts) {
          util::ScopedParallelism p(threads);
          const std::vector<double> got = compute();
          ASSERT_EQ(got.size(), reference.size());
          ASSERT_EQ(0, std::memcmp(got.data(), reference.data(),
                                   got.size() * sizeof(double)))
              << "rows=" << rows << " n=" << n << " k=" << k << " on "
              << la::simd::IsaName(isa) << " at " << threads << " threads";
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, Transposed) {
  const la::Matrix a = RandomMatrix(111, 67, 7);
  ExpectBitwiseStable([&] { return a.Transposed().data(); });
}

TEST(ParallelEquivalenceTest, SparseMultiply) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(300, RingWithChords(300));
  const la::Matrix x = RandomMatrix(300, 32, 8);
  ExpectBitwiseStable([&] { return s.Multiply(x).data(); });
}

TEST(ParallelEquivalenceTest, KMeans) {
  const la::Matrix data = RandomMatrix(900, 16, 9);
  la::KMeansOptions options;
  options.num_clusters = 12;
  ExpectBitwiseStable([&] {
    util::Rng rng(42);  // same seed per run: only threading may vary
    util::Result<la::KMeansResult> result = la::KMeans(data, options, rng);
    EXPECT_TRUE(result.ok());
    const auto& centroids = result.value().centroids.data();
    std::vector<double> flat(centroids.begin(), centroids.end());
    for (size_t a : result.value().assignments) {
      flat.push_back(static_cast<double>(a));
    }
    flat.insert(flat.end(), result.value().distances.begin(),
                result.value().distances.end());
    flat.push_back(result.value().inertia);
    return flat;
  });
}

TEST(ParallelEquivalenceTest, PprBatch) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(400, RingWithChords(400));
  std::vector<size_t> seeds;
  for (size_t v = 0; v < 64; ++v) seeds.push_back(v * 6 % 400);
  ExpectBitwiseStable([&] {
    prop::PprEngine engine(&s);
    engine.ComputeRows(seeds);
    std::vector<double> flat;
    for (size_t v : seeds) {
      const std::vector<double>& row = engine.Row(v);
      flat.insert(flat.end(), row.begin(), row.end());
    }
    return flat;
  });
}

TEST(ParallelEquivalenceTest, PprBatchMatchesSerialRowCalls) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(200, RingWithChords(200));
  prop::PprEngine batch(&s);
  prop::PprEngine serial(&s);
  std::vector<size_t> seeds = {0, 7, 7, 50, 199, 3};  // includes a duplicate
  {
    util::ScopedParallelism p(4);
    batch.ComputeRows(seeds);
  }
  for (size_t v : seeds) {
    util::ScopedParallelism p(1);
    const std::vector<double>& expect = serial.Row(v);
    const std::vector<double>& got = batch.Row(v);
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(expect[i], got[i]);
  }
  EXPECT_EQ(batch.num_computed_rows(), 5u);  // duplicate computed once
}

TEST(ParallelEquivalenceTest, QuerySelectorGale) {
  const size_t n = 500;
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(n, RingWithChords(n));
  const la::Matrix embeddings = RandomMatrix(n, 24, 10);
  la::Matrix probs(n, 2);
  util::Rng prng(11);
  for (size_t v = 0; v < n; ++v) {
    const double p = prng.Uniform(0.05, 0.95);
    probs.At(v, 0) = p;
    probs.At(v, 1) = 1.0 - p;
  }
  std::vector<int> labels(n, core::kUnlabeled);
  for (size_t v = 0; v < n; v += 17) {
    labels[v] = (v % 34 == 0) ? core::kLabelError : core::kLabelCorrect;
  }
  ExpectBitwiseStable([&] {
    core::QuerySelector selector(&s, core::QuerySelectorOptions{});
    util::Result<std::vector<size_t>> picks =
        selector.Select(embeddings, labels, probs, 12);
    EXPECT_TRUE(picks.ok());
    std::vector<double> flat;
    for (size_t v : picks.value()) flat.push_back(static_cast<double>(v));
    return flat;
  });
}

}  // namespace
}  // namespace gale
