// Batched-PPR equivalence: ComputeRows' blocked power iteration must
// produce rows byte-identical to the serial Row(v) path for every seed,
// at every batch size, thread count and ISA. Row(v) and a single-seed
// batch share the width-1 product, so the reference is Row(v) under the
// scalar tier (the CSR gather), never the tier under test. The _mt4 ctest
// entry reruns the whole file at GALE_NUM_THREADS=4; the loops below
// additionally pin 1 and 4 threads explicitly so a single run covers
// both.

#include <cstring>
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

std::vector<size_t> TestSeeds(size_t n) {
  // Distinct seeds spread over the graph plus duplicates (ComputeRows
  // must dedup) and both endpoints.
  std::vector<size_t> seeds;
  for (size_t v = 0; v < n; v += 3) seeds.push_back(v);
  seeds.push_back(0);
  seeds.push_back(n - 1);
  seeds.push_back(seeds[1]);  // duplicate mid-list
  return seeds;
}

void ExpectBytesEqual(const std::vector<double>& got,
                      const std::vector<double>& want, size_t seed_node,
                      size_t batch_size, int threads) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(double)))
      << "batched PPR row differs from serial Row() for seed " << seed_node
      << " at batch_size=" << batch_size << " threads=" << threads;
}

void CheckBatchedMatchesSerial(const PprOptions& base_options) {
  const size_t n = 97;
  la::SparseMatrix walk = RandomWalkMatrix(n, 180, /*seed=*/1234);
  const std::vector<size_t> seeds = TestSeeds(n);

  // Serial reference rows, computed one by one through the Row(v) miss
  // path at a single thread on the scalar tier.
  std::vector<std::vector<double>> reference(n);
  {
    la::simd::ScopedIsaOverride pin(la::simd::Isa::kScalar);
    util::ScopedParallelism p(1);
    PprEngine serial(&walk, base_options);
    for (size_t v : seeds) reference[v] = serial.Row(v);
  }

  for (la::simd::Isa isa : {la::simd::Isa::kScalar, la::simd::Isa::kAvx2}) {
    la::simd::ScopedIsaOverride pin(isa);
    for (int threads : {1, 4}) {
      util::ScopedParallelism p(threads);
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
        PprOptions options = base_options;
        options.batch_size = batch_size;
        PprEngine batched(&walk, options);
        batched.ComputeRows(seeds);
        for (size_t v : seeds) {
          ASSERT_TRUE(batched.IsCached(v));
          ExpectBytesEqual(batched.Row(v), reference[v], v, batch_size,
                           threads);
        }
      }
    }
  }
}

TEST(PprBatchEquivalenceTest, MatchesSerialRows) {
  CheckBatchedMatchesSerial(PprOptions{});
}

TEST(PprBatchEquivalenceTest, MatchesSerialRowsLooseTolerance) {
  // A loose tolerance makes columns converge at different sweeps, so the
  // convergence-masking retirement/compaction path is exercised hard.
  PprOptions options;
  options.tolerance = 1e-4;
  CheckBatchedMatchesSerial(options);
}

TEST(PprBatchEquivalenceTest, MatchesSerialRowsIterationCapped) {
  // A tiny iteration cap retires every unconverged column on the final
  // sweep — the serial path's break-at-max semantics.
  PprOptions options;
  options.max_iterations = 3;
  CheckBatchedMatchesSerial(options);
}

TEST(PprBatchEquivalenceTest, MatchesSerialRowsZeroIterations) {
  // max_iterations <= 0: both paths must return the teleport-only e_v.
  PprOptions options;
  options.max_iterations = 0;
  CheckBatchedMatchesSerial(options);
}

TEST(PprBatchEquivalenceTest, NarrowBatchesMatchSerialRows) {
  // The store's shapes: batches of 1-5 seeds, laid out at stride = width,
  // and 65 seeds at batch_size 64, whose last batch is a single seed. The
  // reference is Row(v) under the scalar tier at one thread; every ISA
  // and thread count must reproduce it byte for byte.
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

  std::vector<std::vector<double>> reference(n);
  {
    la::simd::ScopedIsaOverride pin(la::simd::Isa::kScalar);
    util::ScopedParallelism p(1);
    PprEngine serial(&walk);
    for (size_t v = 0; v < n; ++v) reference[v] = serial.Row(v);
  }
  for (la::simd::Isa isa : {la::simd::Isa::kScalar, la::simd::Isa::kAvx2}) {
    la::simd::ScopedIsaOverride pin(isa);
    for (int threads : {1, 4}) {
      util::ScopedParallelism p(threads);
      for (const std::vector<size_t>& seeds : seed_lists) {
        SCOPED_TRACE(::testing::Message()
                     << seeds.size() << " seeds, isa "
                     << la::simd::IsaName(la::simd::ActiveIsa()));
        PprEngine batched(&walk, PprOptions{.batch_size = 64});
        batched.ComputeRows(seeds);
        EXPECT_EQ(batched.num_computed_rows(), seeds.size());
        for (size_t v : seeds) {
          ExpectBytesEqual(batched.Row(v), reference[v], v, 64, threads);
        }
      }
    }
  }
}

TEST(PprBatchEquivalenceTest, PartiallyCachedBatchOnlyComputesMissing) {
  const size_t n = 60;
  la::SparseMatrix walk = RandomWalkMatrix(n, 90, /*seed=*/77);
  PprOptions options;
  options.batch_size = 7;
  PprEngine ppr(&walk, options);

  ppr.Row(5);
  ppr.Row(20);
  EXPECT_EQ(ppr.num_computed_rows(), 2u);

  std::vector<size_t> seeds;
  for (size_t v = 0; v < n; v += 2) seeds.push_back(v);
  ppr.ComputeRows(seeds);
  // 30 even seeds; 5 is odd so only 20 was already cached.
  EXPECT_EQ(ppr.num_computed_rows(), 2u + (seeds.size() - 1));

  la::simd::ScopedIsaOverride pin(la::simd::Isa::kScalar);
  PprEngine serial(&walk, PprOptions{});
  for (size_t v : seeds) {
    const std::vector<double> want = serial.Row(v);
    ExpectBytesEqual(ppr.Row(v), want, v, options.batch_size, 0);
  }
}

TEST(PprBatchEquivalenceTest, RepeatedComputeRowsIsIdempotent) {
  const size_t n = 40;
  la::SparseMatrix walk = RandomWalkMatrix(n, 50, /*seed=*/5);
  PprEngine ppr(&walk, PprOptions{.batch_size = 16});
  std::vector<size_t> seeds = {1, 3, 5, 7, 9};
  ppr.ComputeRows(seeds);
  const size_t computed = ppr.num_computed_rows();
  EXPECT_EQ(computed, seeds.size());
  ppr.ComputeRows(seeds);  // all hits: no recomputation
  EXPECT_EQ(ppr.num_computed_rows(), computed);
}

}  // namespace
}  // namespace gale::prop
