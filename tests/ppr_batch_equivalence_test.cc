// PPR equivalence: every row PprEngine produces — batched prefetches
// through ComputeRows and one-seed Row(v) misses, cached or not — must be
// byte-identical to an independent reference power iteration written in
// this file from the formula, for every seed, seed count, thread count and
// ISA. The _mt4 ctest entry reruns the whole file at GALE_NUM_THREADS=4;
// the loops below additionally pin 1 and 4 threads explicitly so a single
// run covers both.

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "la/simd.h"
#include "la/sparse_matrix.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale::prop {
namespace {

// A connected random graph with skewed degrees: a path backbone (keeps it
// connected) plus random chords, several through a small set of hub
// nodes so row-block balancing sees real skew.
la::SparseMatrix RandomWalkMatrix(size_t n, size_t extra_edges,
                                  uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  for (size_t e = 0; e < extra_edges; ++e) {
    const size_t u = e % 3 == 0 ? rng.UniformInt(4) : rng.UniformInt(n);
    const size_t v = rng.UniformInt(n);
    if (u != v) edges.emplace_back(u, v);
  }
  return la::SparseMatrix::NormalizedAdjacency(n, edges);
}

// The reference row: power iteration straight from the formula
//   p <- alpha * e_v + (1 - alpha) * S p,
// with a plain CSR loop (each element summed from +0.0 in ascending
// nonzero order), the damp, the teleport add at the seed, the L1 diff
// summed in ascending row order, and the break after the swap. Plain
// scalar code that calls no la:: kernel, so it shares nothing with the
// engine and runs the same on every ISA tier.
std::vector<double> ReferenceRow(const la::SparseMatrix& s, size_t v,
                                 const PprOptions& options) {
  const size_t n = s.rows();
  std::vector<double> p(n, 0.0);
  std::vector<double> next(n, 0.0);
  p[v] = 1.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (size_t k = s.RowBegin(r); k < s.RowEnd(r); ++k) {
        acc += s.Value(k) * p[s.ColIndex(k)];
      }
      next[r] = acc;
    }
    double diff = 0.0;
    for (size_t i = 0; i < n; ++i) {
      next[i] *= 1.0 - options.alpha;
      if (i == v) next[i] += options.alpha;
      diff += std::abs(next[i] - p[i]);
    }
    std::swap(p, next);
    if (diff < options.tolerance) break;
  }
  return p;
}

std::vector<std::vector<double>> ReferenceRows(const la::SparseMatrix& s,
                                               const PprOptions& options) {
  std::vector<std::vector<double>> rows(s.rows());
  for (size_t v = 0; v < s.rows(); ++v) rows[v] = ReferenceRow(s, v, options);
  return rows;
}

// `count` distinct seeds spread over the graph (37 is coprime with every
// n used here), then a duplicate that ComputeRows must drop.
std::vector<size_t> SpreadSeeds(size_t count, size_t n) {
  std::vector<size_t> seeds;
  for (size_t j = 0; j < count; ++j) seeds.push_back((j * 37 + 1) % n);
  seeds.push_back(seeds.front());
  return seeds;
}

void ExpectBytesEqual(const std::vector<double>& got,
                      const std::vector<double>& want, size_t seed_node) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(double)))
      << "PPR row differs from the reference for seed " << seed_node;
}

// 1 and 7 seeds are single batches, 64 fills one batch and 65 leaves a
// ragged one-seed batch; convergence masking takes each batch through
// every narrower width as its columns retire.
constexpr size_t kSeedCounts[] = {1, 7, 64, 65};

void CheckRowsMatchReference(const PprOptions& base_options) {
  const size_t n = 97;
  la::SparseMatrix walk = RandomWalkMatrix(n, 180, /*seed=*/1234);
  const std::vector<std::vector<double>> reference =
      ReferenceRows(walk, base_options);

  for (la::simd::Isa isa : la::simd::SupportedIsas()) {
    la::simd::ScopedIsaOverride pin(isa);
    for (int threads : {1, 4}) {
      util::ScopedParallelism p(threads);
      for (size_t count : kSeedCounts) {
        SCOPED_TRACE(::testing::Message()
                     << count << " seeds, threads " << threads << ", isa "
                     << la::simd::IsaName(la::simd::ActiveIsa()));
        const std::vector<size_t> seeds = SpreadSeeds(count, n);
        PprEngine batched(&walk, base_options);
        batched.ComputeRows(seeds);
        EXPECT_EQ(batched.num_computed_rows(), count);
        for (size_t v : seeds) {
          ASSERT_TRUE(batched.IsCached(v));
          ExpectBytesEqual(batched.Row(v), reference[v], v);
        }
      }
      // Row(v) misses, cached and with the cache off (U_GALE).
      for (bool cache_rows : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "Row() misses, cache_rows " << cache_rows
                     << ", threads " << threads << ", isa "
                     << la::simd::IsaName(la::simd::ActiveIsa()));
        PprOptions options = base_options;
        options.cache_rows = cache_rows;
        PprEngine engine(&walk, options);
        for (size_t v : SpreadSeeds(7, n)) {
          ExpectBytesEqual(engine.Row(v), reference[v], v);
        }
      }
    }
  }
}

TEST(PprBatchEquivalenceTest, MatchesReferenceRows) {
  CheckRowsMatchReference(PprOptions{});
}

TEST(PprBatchEquivalenceTest, MatchesReferenceRowsLooseTolerance) {
  // A loose tolerance makes columns converge at different sweeps, so the
  // convergence-masking retirement/compaction path is exercised hard.
  PprOptions options;
  options.tolerance = 1e-4;
  CheckRowsMatchReference(options);
}

TEST(PprBatchEquivalenceTest, MatchesReferenceRowsIterationCapped) {
  // A tiny iteration cap retires every unconverged column on the final
  // sweep — the reference's break-at-max semantics.
  PprOptions options;
  options.max_iterations = 3;
  CheckRowsMatchReference(options);
}

TEST(PprBatchEquivalenceTest, MatchesReferenceRowsZeroIterations) {
  // max_iterations <= 0: every row is the teleport-only e_v.
  PprOptions options;
  options.max_iterations = 0;
  CheckRowsMatchReference(options);
}

TEST(PprBatchEquivalenceTest, NarrowBatchesMatchReferenceRows) {
  // The store's shapes: batches of 1-5 seeds, laid out at stride = width,
  // and 65 seeds, whose last batch is a single seed. Every ISA and thread
  // count must reproduce the reference byte for byte.
  const size_t n = 131;
  la::SparseMatrix walk = RandomWalkMatrix(n, 260, /*seed=*/4321);
  std::vector<std::vector<size_t>> seed_lists;
  for (size_t len = 1; len <= 5; ++len) {
    std::vector<size_t> seeds;
    for (size_t j = 0; j < len; ++j) seeds.push_back((j * 37 + len) % n);
    seed_lists.push_back(seeds);
  }
  std::vector<size_t> ragged;
  for (size_t j = 0; j < 65; ++j) ragged.push_back((j * 2) % n);
  seed_lists.push_back(ragged);

  const std::vector<std::vector<double>> reference =
      ReferenceRows(walk, PprOptions{});
  for (la::simd::Isa isa : la::simd::SupportedIsas()) {
    la::simd::ScopedIsaOverride pin(isa);
    for (int threads : {1, 4}) {
      util::ScopedParallelism p(threads);
      for (const std::vector<size_t>& seeds : seed_lists) {
        SCOPED_TRACE(::testing::Message()
                     << seeds.size() << " seeds, threads " << threads
                     << ", isa " << la::simd::IsaName(la::simd::ActiveIsa()));
        PprEngine batched(&walk);
        batched.ComputeRows(seeds);
        EXPECT_EQ(batched.num_computed_rows(), seeds.size());
        for (size_t v : seeds) {
          ExpectBytesEqual(batched.Row(v), reference[v], v);
        }
      }
    }
  }
}

TEST(PprBatchEquivalenceTest, PartiallyCachedBatchOnlyComputesMissing) {
  const size_t n = 60;
  la::SparseMatrix walk = RandomWalkMatrix(n, 90, /*seed=*/77);
  PprEngine ppr(&walk);

  ppr.Row(5);
  ppr.Row(20);
  EXPECT_EQ(ppr.num_computed_rows(), 2u);

  std::vector<size_t> seeds;
  for (size_t v = 0; v < n; v += 2) seeds.push_back(v);
  ppr.ComputeRows(seeds);
  // 30 even seeds; 5 is odd so only 20 was already cached.
  EXPECT_EQ(ppr.num_computed_rows(), 2u + (seeds.size() - 1));

  for (size_t v : seeds) {
    ExpectBytesEqual(ppr.Row(v), ReferenceRow(walk, v, PprOptions{}), v);
  }
}

TEST(PprBatchEquivalenceTest, RepeatedComputeRowsIsIdempotent) {
  const size_t n = 40;
  la::SparseMatrix walk = RandomWalkMatrix(n, 50, /*seed=*/5);
  PprEngine ppr(&walk);
  std::vector<size_t> seeds = {1, 3, 5, 7, 9};
  ppr.ComputeRows(seeds);
  const size_t computed = ppr.num_computed_rows();
  EXPECT_EQ(computed, seeds.size());
  ppr.ComputeRows(seeds);  // all hits: no recomputation
  EXPECT_EQ(ppr.num_computed_rows(), computed);
}

}  // namespace
}  // namespace gale::prop
