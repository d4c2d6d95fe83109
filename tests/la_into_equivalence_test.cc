// The *Into out-parameter kernels must be bitwise identical to their
// allocating forms — into a fresh output, into a dirty (poisoned) warm
// buffer, and at every thread count — because the nn stack swaps between
// the two freely and the determinism contract compares raw doubles.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale {
namespace {

constexpr int kThreadCounts[] = {1, 4};
constexpr double kPoison = -777.25;  // exactly representable

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return la::Matrix::RandomNormal(rows, cols, 1.0, rng);
}

void ExpectBitwiseEqual(const la::Matrix& a, const la::Matrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i])
        << what << ": element " << i << " differs";
  }
}

// Runs `into` twice against the allocating `reference` result: once into a
// fresh buffer, once into a poisoned buffer of the right capacity but a
// different prior shape — EnsureShape must reshape it and the kernel must
// overwrite every entry (or zero-fill first, for accumulating kernels).
template <typename RefFn, typename IntoFn>
void CheckIntoMatchesAllocating(RefFn reference, IntoFn into,
                                const char* what) {
  for (int threads : kThreadCounts) {
    util::ScopedParallelism p(threads);
    const la::Matrix expected = reference();

    la::Matrix fresh;
    into(&fresh);
    ExpectBitwiseEqual(expected, fresh, what);

    la::Matrix dirty(expected.cols() + 3, expected.rows() + 2);
    dirty.Fill(kPoison);
    into(&dirty);
    ExpectBitwiseEqual(expected, dirty, what);
  }
}

TEST(IntoEquivalenceTest, MatMul) {
  const la::Matrix a = RandomMatrix(57, 33, 11);
  const la::Matrix b = RandomMatrix(33, 29, 12);
  CheckIntoMatchesAllocating([&] { return a.MatMul(b); },
                             [&](la::Matrix* out) { a.MatMulInto(b, out); },
                             "MatMulInto");
}

TEST(IntoEquivalenceTest, TransposedMatMul) {
  const la::Matrix a = RandomMatrix(57, 33, 13);
  const la::Matrix b = RandomMatrix(57, 21, 14);
  CheckIntoMatchesAllocating(
      [&] { return a.TransposedMatMul(b); },
      [&](la::Matrix* out) { a.TransposedMatMulInto(b, out); },
      "TransposedMatMulInto");
}

TEST(IntoEquivalenceTest, MatMulTransposed) {
  const la::Matrix a = RandomMatrix(41, 28, 15);
  const la::Matrix b = RandomMatrix(37, 28, 16);
  CheckIntoMatchesAllocating(
      [&] { return a.MatMulTransposed(b); },
      [&](la::Matrix* out) { a.MatMulTransposedInto(b, out); },
      "MatMulTransposedInto");
}

TEST(IntoEquivalenceTest, Transpose) {
  const la::Matrix a = RandomMatrix(66, 43, 17);
  CheckIntoMatchesAllocating([&] { return a.Transposed(); },
                             [&](la::Matrix* out) { a.TransposeInto(out); },
                             "TransposeInto");
}

TEST(IntoEquivalenceTest, AddSubScale) {
  const la::Matrix a = RandomMatrix(31, 19, 18);
  const la::Matrix b = RandomMatrix(31, 19, 19);
  CheckIntoMatchesAllocating([&] { return a + b; },
                             [&](la::Matrix* out) { a.AddInto(b, out); },
                             "AddInto");
  CheckIntoMatchesAllocating([&] { return a - b; },
                             [&](la::Matrix* out) { a.SubInto(b, out); },
                             "SubInto");
  CheckIntoMatchesAllocating([&] { return a * 0.37; },
                             [&](la::Matrix* out) { a.ScaleInto(0.37, out); },
                             "ScaleInto");
}

TEST(IntoEquivalenceTest, ColReductions) {
  const la::Matrix a = RandomMatrix(44, 23, 20);
  CheckIntoMatchesAllocating([&] { return a.ColMean(); },
                             [&](la::Matrix* out) { a.ColMeanInto(out); },
                             "ColMeanInto");
  CheckIntoMatchesAllocating([&] { return a.ColSum(); },
                             [&](la::Matrix* out) { a.ColSumInto(out); },
                             "ColSumInto");
}

TEST(IntoEquivalenceTest, SelectRows) {
  const la::Matrix a = RandomMatrix(50, 13, 21);
  const std::vector<size_t> rows = {49, 0, 7, 7, 31, 2};
  CheckIntoMatchesAllocating(
      [&] { return a.SelectRows(rows); },
      [&](la::Matrix* out) { a.SelectRowsInto(rows, out); },
      "SelectRowsInto");
}

la::SparseMatrix RandomSparse(size_t n, int per_row, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<la::Triplet> triplets;
  for (size_t r = 0; r < n; ++r) {
    for (int k = 0; k < per_row; ++k) {
      triplets.push_back({r, rng.UniformInt(n), rng.Normal(0.0, 1.0)});
    }
  }
  return la::SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

TEST(IntoEquivalenceTest, SparseMultiply) {
  const la::SparseMatrix s = RandomSparse(40, 4, 22);
  const la::Matrix dense = RandomMatrix(40, 9, 23);
  CheckIntoMatchesAllocating(
      [&] { return s.Multiply(dense); },
      [&](la::Matrix* out) { s.MultiplyInto(dense, out); },
      "SparseMatrix::MultiplyInto");
}

TEST(IntoEquivalenceTest, SparseMultiplyVector) {
  const la::SparseMatrix s = RandomSparse(30, 3, 24);
  util::Rng rng(25);
  std::vector<double> v(30);
  for (double& x : v) x = rng.Normal(0.0, 1.0);

  // The allocating one-column product against the width-1 strided form
  // writing into a poisoned buffer.
  la::Matrix column(30, 1);
  for (size_t i = 0; i < v.size(); ++i) column.At(i, 0) = v[i];
  const la::Matrix expected = s.Multiply(column);
  std::vector<double> out(30, kPoison);
  s.MultiplyStridedInto(v.data(), 1, 1, out.data());
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(expected.At(i, 0), out[i]);
}

// Accumulation onto a zeroed output is bitwise identical to assignment:
// 0.0 + x == x for every finite x (only -0.0 would flip to +0.0, and the
// kernels never produce a bare -0.0 sum from these inputs).
TEST(IntoEquivalenceTest, AccumulateOntoZerosMatchesAssign) {
  const la::Matrix a = RandomMatrix(26, 17, 25);
  const la::Matrix b = RandomMatrix(17, 22, 26);
  const la::Matrix expected = a.MatMul(b);

  la::Matrix acc(26, 22);
  acc.Fill(0.0);
  a.MatMulInto(b, &acc, /*accumulate=*/true);
  ExpectBitwiseEqual(expected, acc, "MatMulInto accumulate-on-zero");

  const la::Matrix c = RandomMatrix(26, 14, 27);
  const la::Matrix expected2 = a.TransposedMatMul(c);
  la::Matrix acc2(17, 14);
  acc2.Fill(0.0);
  a.TransposedMatMulInto(c, &acc2, /*accumulate=*/true);
  ExpectBitwiseEqual(expected2, acc2,
                     "TransposedMatMulInto accumulate-on-zero");
}

// Accumulation onto non-zero contents adds the product on top. This is
// NOT bitwise against `base + MatMul(...)`: the kernel folds the partial
// products onto the base as it goes, the reference adds the finished sum
// once at the end, and FP addition does not reassociate. AllClose only.
TEST(IntoEquivalenceTest, AccumulateAddsOntoExisting) {
  const la::Matrix a = RandomMatrix(19, 11, 28);
  const la::Matrix b = RandomMatrix(11, 8, 29);
  la::Matrix base = RandomMatrix(19, 8, 30);
  const la::Matrix expected = base + a.MatMul(b);

  la::Matrix acc = base;
  a.MatMulInto(b, &acc, /*accumulate=*/true);
  EXPECT_TRUE(expected.AllClose(acc, 1e-12))
      << "MatMulInto accumulate-on-preloaded";

  la::Matrix bias = RandomMatrix(1, 8, 31);
  const la::Matrix expected_bias = bias + a.MatMul(b).ColSum();
  la::Matrix acc_bias = bias;
  a.MatMul(b).ColSumInto(&acc_bias, /*accumulate=*/true);
  EXPECT_TRUE(expected_bias.AllClose(acc_bias, 1e-12))
      << "ColSumInto accumulate-on-preloaded";
}

}  // namespace
}  // namespace gale
