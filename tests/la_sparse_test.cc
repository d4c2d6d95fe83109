#include "la/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// gale-lint: allow(simd-include): the grouped products are pinned per ISA
#include "la/simd.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale::la {
namespace {

TEST(SparseMatrixTest, FromTripletsCoalescesDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  EXPECT_EQ(m.nnz(), 2u);
  Matrix dense = m.ToDense();
  EXPECT_DOUBLE_EQ(dense.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(dense.At(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(dense.At(0, 1), 0.0);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  util::Rng rng(1);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 40; ++i) {
    triplets.push_back({rng.UniformInt(8), rng.UniformInt(8),
                        rng.Normal()});
  }
  SparseMatrix s = SparseMatrix::FromTriplets(8, 8, triplets);
  Matrix x = Matrix::RandomNormal(8, 5, 1.0, rng);
  Matrix via_sparse = s.Multiply(x);
  Matrix via_dense = s.ToDense().MatMul(x);
  EXPECT_TRUE(via_sparse.AllClose(via_dense, 1e-12));
}

TEST(SparseMatrixTest, MultiplyVector) {
  SparseMatrix s =
      SparseMatrix::FromTriplets(2, 3, {{0, 1, 2.0}, {1, 2, -1.0}});
  const std::vector<double> x = {1.0, 10.0, 100.0};
  std::vector<double> out(2);
  s.MultiplyStridedInto(x.data(), 1, 1, out.data());
  EXPECT_DOUBLE_EQ(out[0], 20.0);
  EXPECT_DOUBLE_EQ(out[1], -100.0);
}

TEST(NormalizedAdjacencyTest, RowsOfRegularGraphSumToOne) {
  // A 4-cycle: every node has degree 2, so D̃ = 3I and each row of the
  // normalized operator sums to (1 + 2) / 3 = 1.
  SparseMatrix s = SparseMatrix::NormalizedAdjacency(
      4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Matrix dense = s.ToDense();
  for (size_t r = 0; r < 4; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 4; ++c) sum += dense.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(NormalizedAdjacencyTest, IsSymmetric) {
  SparseMatrix s = SparseMatrix::NormalizedAdjacency(
      5, {{0, 1}, {0, 2}, {1, 2}, {3, 4}});
  Matrix dense = s.ToDense();
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(dense.At(r, c), dense.At(c, r), 1e-12);
    }
  }
}

TEST(NormalizedAdjacencyTest, IsolatedNodeKeepsSelfLoopOnly) {
  SparseMatrix s = SparseMatrix::NormalizedAdjacency(3, {{0, 1}});
  Matrix dense = s.ToDense();
  EXPECT_DOUBLE_EQ(dense.At(2, 2), 1.0);  // degree-0 node: Ã = I entry
  EXPECT_DOUBLE_EQ(dense.At(2, 0), 0.0);
}

TEST(NormalizedAdjacencyTest, EntriesMatchFormula) {
  // Edge (0,1) with degrees d0 = 2, d1 = 2 (after +I): entry =
  // 1/sqrt(2*2) = 0.5.
  SparseMatrix s = SparseMatrix::NormalizedAdjacency(2, {{0, 1}});
  Matrix dense = s.ToDense();
  EXPECT_NEAR(dense.At(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(dense.At(0, 0), 0.5, 1e-12);
}

TEST(NormalizedAdjacencyTest, MatchesTripletBuildBitwise) {
  // Duplicate typed edges (a pair repeated, and repeated reversed),
  // self-loop edges, a hub and isolated nodes: the counting build must
  // give the triplet build's row pointers, columns and values byte for
  // byte.
  util::Rng rng(81);
  const size_t n = 300;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t e = 0; e < 900; ++e) {
    // Nodes [n - 20, n) stay isolated.
    const size_t u = e % 11 == 0 ? 0 : rng.UniformInt(n - 20);
    const size_t v = e % 9 == 0 ? u : rng.UniformInt(n - 20);
    edges.emplace_back(u, v);
    if (e % 4 == 0) edges.emplace_back(u, v);
    if (e % 7 == 0) edges.emplace_back(v, u);
  }
  std::vector<double> degree(n, 1.0);
  for (const auto& [u, v] : edges) {
    degree[u] += 1.0;
    degree[v] += 1.0;
  }
  std::vector<double> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0 / std::sqrt(degree[i]);
  std::vector<Triplet> triplets;
  for (size_t i = 0; i < n; ++i) {
    triplets.push_back({i, i, inv_sqrt[i] * inv_sqrt[i]});
  }
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    const double w = inv_sqrt[u] * inv_sqrt[v];
    triplets.push_back({u, v, w});
    triplets.push_back({v, u, w});
  }
  const SparseMatrix want = SparseMatrix::FromTriplets(n, n, triplets);
  const SparseMatrix got = SparseMatrix::NormalizedAdjacency(n, edges);

  ASSERT_EQ(got.rows(), n);
  ASSERT_EQ(got.cols(), n);
  ASSERT_EQ(got.nnz(), want.nnz());
  for (size_t r = 0; r < n; ++r) {
    ASSERT_EQ(got.RowBegin(r), want.RowBegin(r)) << "row " << r;
  }
  ASSERT_EQ(got.RowEnd(n - 1), want.RowEnd(n - 1));
  for (size_t k = 0; k < want.nnz(); ++k) {
    ASSERT_EQ(got.ColIndex(k), want.ColIndex(k)) << "entry " << k;
    const double g = got.Value(k);
    const double w = want.Value(k);
    ASSERT_EQ(0, std::memcmp(&g, &w, sizeof(double))) << "entry " << k;
  }
  EXPECT_EQ(got.num_row_blocks(), want.num_row_blocks());
}

TEST(SparseMatrixTest, EmptyRowsStayZeroInEveryProduct) {
  // Rows 0, 2, 4 have no entries under the packed uint32 layout; every
  // product must leave their outputs exactly zero.
  SparseMatrix s = SparseMatrix::FromTriplets(
      5, 4, {{1, 0, 2.0}, {1, 3, -1.0}, {3, 2, 4.0}});
  util::Rng rng(9);
  Matrix x = Matrix::RandomNormal(4, 3, 1.0, rng);
  Matrix out = s.Multiply(x);
  for (size_t r : {0u, 2u, 4u}) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(out.At(r, c), 0.0);
  }
  EXPECT_TRUE(out.AllClose(s.ToDense().MatMul(x), 1e-12));

  const std::vector<double> vec = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> vec_out(5);
  s.MultiplyStridedInto(vec.data(), 1, 1, vec_out.data());
  EXPECT_DOUBLE_EQ(vec_out[0], 0.0);
  EXPECT_DOUBLE_EQ(vec_out[2], 0.0);
  EXPECT_DOUBLE_EQ(vec_out[4], 0.0);
}

TEST(SparseMatrixTest, SingleEntryRowsScaleTheGatheredRow) {
  SparseMatrix s = SparseMatrix::FromTriplets(
      3, 3, {{0, 2, 2.5}, {1, 0, -1.0}, {2, 1, 0.5}});
  util::Rng rng(11);
  Matrix x = Matrix::RandomNormal(3, 4, 1.0, rng);
  Matrix out = s.Multiply(x);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(out.At(0, c), 2.5 * x.At(2, c));
    EXPECT_DOUBLE_EQ(out.At(1, c), -1.0 * x.At(0, c));
    EXPECT_DOUBLE_EQ(out.At(2, c), 0.5 * x.At(1, c));
  }
}

TEST(SparseMatrixTest, CoalescesDuplicatesAtWideColumnIndices) {
  // Column ids beyond 16 bits exercise the packed uint32 index layout;
  // duplicate triplets (including out-of-order ones) must still coalesce
  // by summation.
  const size_t wide = 70'000;
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, wide + 1,
      {{0, wide, 1.5}, {0, 3, 1.0}, {0, wide, 2.0}, {1, wide - 1, 4.0},
       {0, wide, -0.5}, {1, wide - 1, -4.0}});
  EXPECT_EQ(m.nnz(), 3u);  // (0,3), (0,wide), (1,wide-1)
  EXPECT_EQ(m.RowEnd(0) - m.RowBegin(0), 2u);
  EXPECT_EQ(m.ColIndex(m.RowBegin(0)), 3u);
  EXPECT_EQ(m.ColIndex(m.RowBegin(0) + 1), wide);
  EXPECT_DOUBLE_EQ(m.Value(m.RowBegin(0) + 1), 3.0);
  EXPECT_DOUBLE_EQ(m.Value(m.RowBegin(1)), 0.0);  // 4.0 + -4.0 kept
}

TEST(SparseMatrixTest, StridedMultiplyMatchesPerColumnSpmvBitwise) {
  util::Rng rng(41);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 90; ++i) {
    triplets.push_back({rng.UniformInt(15), rng.UniformInt(15), rng.Normal()});
  }
  SparseMatrix s = SparseMatrix::FromTriplets(15, 15, triplets);
  const size_t stride = 6;
  const size_t width = 4;
  std::vector<double> in(15 * stride);
  for (double& v : in) v = rng.Normal();
  std::vector<double> out(15 * stride, -7.0);

  for (int threads : {1, 4}) {
    util::ScopedParallelism p(threads);
    std::fill(out.begin(), out.end(), -7.0);
    s.MultiplyStridedInto(in.data(), width, stride, out.data());
    for (size_t j = 0; j < width; ++j) {
      std::vector<double> col(15);
      for (size_t r = 0; r < 15; ++r) col[r] = in[r * stride + j];
      std::vector<double> want(15);
      s.MultiplyStridedInto(col.data(), 1, 1, want.data());
      for (size_t r = 0; r < 15; ++r) {
        EXPECT_EQ(out[r * stride + j], want[r])
            << "col " << j << " row " << r << " threads " << threads;
      }
    }
    // Columns beyond `width` are untouched.
    for (size_t r = 0; r < 15; ++r) {
      for (size_t j = width; j < stride; ++j) {
        EXPECT_EQ(out[r * stride + j], -7.0);
      }
    }
  }
}

TEST(SparseMatrixTest, RowBlocksCoverAllRows) {
  util::Rng rng(51);
  std::vector<Triplet> triplets;
  // A hub row with many entries next to sparse rows: the nnz-balanced
  // partition must still cover [0, rows) exactly once.
  for (int i = 0; i < 400; ++i) triplets.push_back({0, rng.UniformInt(500), 1.0});
  for (int i = 0; i < 200; ++i) {
    triplets.push_back({rng.UniformInt(500), rng.UniformInt(500), 1.0});
  }
  SparseMatrix s = SparseMatrix::FromTriplets(500, 500, triplets);
  EXPECT_GE(s.num_row_blocks(), 1u);
  util::Rng vrng(52);
  Matrix x = Matrix::RandomNormal(500, 2, 1.0, vrng);
  EXPECT_TRUE(s.Multiply(x).AllClose(s.ToDense().MatMul(x), 1e-9));
}

TEST(SparseMatrixTest, RowIteration) {
  SparseMatrix s =
      SparseMatrix::FromTriplets(3, 3, {{1, 0, 2.0}, {1, 2, 3.0}});
  EXPECT_EQ(s.RowEnd(0) - s.RowBegin(0), 0u);
  EXPECT_EQ(s.RowEnd(1) - s.RowBegin(1), 2u);
  EXPECT_EQ(s.ColIndex(s.RowBegin(1)), 0u);
  EXPECT_DOUBLE_EQ(s.Value(s.RowBegin(1) + 1), 3.0);
}

// --- grouped products ------------------------------------------------------

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// rows x cols with each entry nonzero with probability `density`; the
// zeros alternate +0.0 and -0.0, row 1 and column 2 are all zero (when
// they exist).
Matrix MostlyZero(size_t rows, size_t cols, double density, util::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const bool keep = r != 1 && c != 2 && rng.Uniform() < density;
      m.At(r, c) = keep ? rng.Normal() : ((r + c) % 2 == 0 ? 0.0 : -0.0);
    }
  }
  return m;
}

// Random finite entries with every fifth one an exact zero of either sign.
Matrix WithZeros(size_t rows, size_t cols, util::Rng& rng) {
  Matrix m = Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < m.size(); i += 5) {
    m.data()[i] = i % 2 == 0 ? 0.0 : -0.0;
  }
  return m;
}

TEST(GroupedProductTest, MatchesTheDenseKernelsBitwise) {
  // Every k % 4 and row count % 4, rows past one Aᵀ·B panel (512), output
  // widths on and off the vector lanes, densities 0, ~1/3 and 1, at 1 and
  // 4 threads on every ISA: memcmp-equal to the dense kernels on
  // ToDense() and on the source (whose -0.0 entries ToDense() turns
  // into +0.0). A·B overwrites; Aᵀ·B accumulates onto a zero and onto a
  // nonzero output.
  util::Rng rng(61);
  for (size_t rows : {size_t{4}, size_t{9}, size_t{14}, size_t{1031}}) {
    for (size_t k : {size_t{8}, size_t{5}, size_t{10}, size_t{7}}) {
      for (double density : {0.0, 1.0 / 3.0, 1.0}) {
        const Matrix a = MostlyZero(rows, k, density, rng);
        SparseMatrix s;
        s.AssignFromDense({&a}, rows);
        const Matrix a_dense = s.ToDense();
        for (size_t n : {size_t{1}, size_t{3}, size_t{8}, size_t{64}}) {
          const Matrix b = WithZeros(k, n, rng);
          const Matrix bt = WithZeros(rows, n, rng);
          const Matrix base_t = Matrix::RandomNormal(k, n, 1.0, rng);
          Matrix want;
          a_dense.MatMulInto(b, &want);
          Matrix want_t;
          a_dense.TransposedMatMulInto(bt, &want_t);
          Matrix want_t_acc = base_t;
          a_dense.TransposedMatMulInto(bt, &want_t_acc, /*accumulate=*/true);
          Matrix from_source;
          a.MatMulInto(b, &from_source);
          Matrix from_source_t;
          a.TransposedMatMulInto(bt, &from_source_t);
          ASSERT_TRUE(SameBytes(from_source, want));
          ASSERT_TRUE(SameBytes(from_source_t, want_t));
          for (int threads : {1, 4}) {
            util::ScopedParallelism p(threads);
            for (simd::Isa isa : simd::SupportedIsas()) {
              simd::ScopedIsaOverride pin(isa);
              const std::string where =
                  "rows=" + std::to_string(rows) + " k=" + std::to_string(k) +
                  " n=" + std::to_string(n) + " density=" +
                  std::to_string(density) + " threads=" +
                  std::to_string(threads) + " isa=" + simd::IsaName(isa);
              Matrix got(rows, n, 7.0);
              s.GroupedMultiplyInto(b, &got);
              EXPECT_TRUE(SameBytes(got, want)) << "A·B " << where;
              Matrix got_t(k, n);
              s.GroupedTransposedMultiplyInto(bt, &got_t);
              EXPECT_TRUE(SameBytes(got_t, want_t)) << "AᵀB " << where;
              Matrix got_t_acc = base_t;
              s.GroupedTransposedMultiplyInto(bt, &got_t_acc);
              EXPECT_TRUE(SameBytes(got_t_acc, want_t_acc))
                  << "AᵀB acc " << where;
            }
          }
        }
      }
    }
  }
}

TEST(GroupedProductTest, PrefixRowsOfALargerOperand) {
  // A·B writes only the first rows() rows of a taller output, and Aᵀ·B
  // reads only the first rows() rows of a taller B: the split first layer
  // of nn::Dense puts a dense product in the rows past the head.
  util::Rng rng(62);
  const Matrix a = MostlyZero(12, 9, 0.4, rng);
  SparseMatrix s;
  s.AssignFromDense({&a}, 12);
  const Matrix b = Matrix::RandomNormal(9, 5, 1.0, rng);
  Matrix out(15, 5, 3.0);
  s.GroupedMultiplyInto(b, &out);
  const Matrix want = a.MatMul(b);
  for (size_t r = 0; r < 15; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      const double expect = r < 12 ? want.At(r, c) : 3.0;
      EXPECT_EQ(0, std::memcmp(&expect, &out.At(r, c), sizeof(double)))
          << r << "," << c;
    }
  }
  const Matrix tall = Matrix::RandomNormal(15, 5, 1.0, rng);
  Matrix got(9, 5);
  s.GroupedTransposedMultiplyInto(tall, &got);
  std::vector<size_t> head_rows(12);
  for (size_t r = 0; r < 12; ++r) head_rows[r] = r;
  EXPECT_TRUE(SameBytes(got, a.TransposedMatMul(tall.SelectRows(head_rows))));
}

TEST(GroupedProductTest, InPlaceRebuildLeavesNoStaleEntries) {
  // A dense build, then a sparser and shorter one from a two-block stack
  // cut mid-block: the rebuilt matrix holds exactly the new nonzeros (in
  // both views) and allocates nothing when the buffers already fit.
  util::Rng rng(63);
  const Matrix full = MostlyZero(10, 7, 1.0, rng);
  const Matrix top = MostlyZero(3, 7, 0.3, rng);
  const Matrix bottom = MostlyZero(5, 7, 0.3, rng);
  SparseMatrix s;
  s.AssignFromDense({&full}, 10);
  const size_t full_nnz = s.nnz();

  const uint64_t before = BufferAllocations();
  s.AssignFromDense({&top, &bottom}, 6);
  EXPECT_EQ(BufferAllocations(), before) << "rebuild within capacity";
  ASSERT_EQ(s.rows(), 6u);
  ASSERT_EQ(s.cols(), 7u);
  Matrix want(6, 7);
  size_t nnz = 0;
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 7; ++c) {
      const double v = r < 3 ? top.At(r, c) : bottom.At(r - 3, c);
      if (std::fpclassify(v) != FP_ZERO) {
        want.At(r, c) = v;
        ++nnz;
      }
    }
  }
  EXPECT_LT(nnz, full_nnz);
  EXPECT_EQ(s.nnz(), nnz);
  EXPECT_TRUE(SameBytes(s.ToDense(), want));
  const Matrix x = Matrix::RandomNormal(6, 3, 1.0, rng);
  Matrix got_t(7, 3);
  s.GroupedTransposedMultiplyInto(x, &got_t);
  EXPECT_TRUE(SameBytes(got_t, want.TransposedMatMul(x)));

  // Growing past the capacity counts, like a Matrix growth.
  const Matrix bigger = MostlyZero(40, 7, 1.0, rng);
  const uint64_t before_growth = BufferAllocations();
  s.AssignFromDense({&bigger}, 40);
  EXPECT_GT(BufferAllocations(), before_growth);
}

// --- the width-1 product ----------------------------------------------------

// out[r * stride] = Σ_k value·in[col·stride] in ascending k, from +0.0: the
// plain CSR loop every width-1 product must reproduce bit for bit.
std::vector<double> CsrLoop(const SparseMatrix& s, const double* in,
                            size_t stride) {
  std::vector<double> out(s.rows());
  for (size_t r = 0; r < s.rows(); ++r) {
    double acc = 0.0;
    for (size_t k = s.RowBegin(r); k < s.RowEnd(r); ++k) {
      acc += s.Value(k) * in[s.ColIndex(k) * stride];
    }
    out[r] = acc;
  }
  return out;
}

// rows x cols with an empty row every fifth, a hub row (row 1, when it
// exists) that references every column but the first and the last, and
// short rows of 1-3 entries, so only short rows reference column 0 and
// column cols - 1.
SparseMatrix HubAndShortRows(size_t rows, size_t cols, util::Rng& rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    if (r % 5 == 4) continue;
    if (r == 1 && cols > 2) {
      for (size_t c = 1; c + 1 < cols; ++c) {
        triplets.push_back({r, c, rng.Normal()});
      }
      continue;
    }
    const size_t len = 1 + rng.UniformInt(3);
    for (size_t e = 0; e < len; ++e) {
      triplets.push_back({r, rng.UniformInt(cols), rng.Normal()});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

// Checks MultiplyStridedInto at width 1 (stride 1, an SpMV, and 7)
// against CsrLoop on every ISA at 1 and 4 threads, bytewise, with the
// columns past the live one untouched. `in` holds
// cols x 7 doubles.
void ExpectWidthOneMatchesCsrLoop(const SparseMatrix& s,
                                  const std::vector<double>& in,
                                  const std::string& what) {
  constexpr double kPoison = -777.25;
  for (size_t stride : {size_t{1}, size_t{7}}) {
    const std::vector<double> want = CsrLoop(s, in.data(), stride);
    for (int threads : {1, 4}) {
      util::ScopedParallelism p(threads);
      for (simd::Isa isa : simd::SupportedIsas()) {
        simd::ScopedIsaOverride pin(isa);
        const std::string where = what + " stride=" + std::to_string(stride) +
                                  " threads=" + std::to_string(threads) +
                                  " isa=" + simd::IsaName(isa);
        std::vector<double> out(std::max<size_t>(1, s.rows() * stride),
                                kPoison);
        s.MultiplyStridedInto(in.data(), 1, stride, out.data());
        for (size_t r = 0; r < s.rows(); ++r) {
          ASSERT_EQ(0, std::memcmp(&out[r * stride], &want[r], sizeof(double)))
              << where << " row " << r;
          for (size_t j = 1; j < stride; ++j) {
            ASSERT_EQ(out[r * stride + j], kPoison) << where << " row " << r;
          }
        }
      }
    }
  }
}

TEST(WidthOneProductTest, MatchesCsrLoopBitwise) {
  // n = 1, 2, 3 and 5 leave ragged last chunks of four; 4401 is an SP-sized
  // walk with a hub row, empty rows and several row blocks.
  util::Rng rng(71);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{4401}}) {
    const SparseMatrix s = HubAndShortRows(n, n, rng);
    std::vector<double> in(n * 7);
    for (double& v : in) v = rng.Normal();
    ExpectWidthOneMatchesCsrLoop(s, in, "n=" + std::to_string(n));
  }
}

TEST(WidthOneProductTest, NonFiniteInputsStayInTheirRows) {
  // inf and NaN at the columns only short rows reference (column 0 is
  // also what dead lanes of a ragged chunk point at): the rows that
  // reference them read inf/NaN, and no other row may.
  util::Rng rng(72);
  for (size_t n : {size_t{5}, size_t{13}, size_t{4401}}) {
    const SparseMatrix s = HubAndShortRows(n, n, rng);
    std::vector<double> in(n * 7);
    for (double& v : in) v = rng.Normal();
    // Column 0 at both strides, column n - 1 at stride 1 and at stride 7.
    in[0] = std::numeric_limits<double>::quiet_NaN();
    in[n - 1] = std::numeric_limits<double>::infinity();
    in[(n - 1) * 7] = -std::numeric_limits<double>::infinity();
    ExpectWidthOneMatchesCsrLoop(s, in, "non-finite n=" + std::to_string(n));
  }
}

TEST(WidthOneProductTest, RebuiltAndCopiedMatricesUseTheirOwnPattern) {
  // The sliced view is built on the first width-1 product: a copy carries
  // it (or builds its own), and AssignFromDense with a new pattern drops
  // it, so no product reads a stale view.
  util::Rng rng(73);
  const Matrix first = MostlyZero(30, 30, 0.5, rng);
  const Matrix second = MostlyZero(23, 30, 0.1, rng);
  std::vector<double> in(30 * 7);
  for (double& v : in) v = rng.Normal();

  SparseMatrix s;
  s.AssignFromDense({&first}, 30);
  const SparseMatrix unbuilt_copy = s;
  ExpectWidthOneMatchesCsrLoop(s, in, "first pattern");
  const SparseMatrix built_copy = s;
  s.AssignFromDense({&second}, 23);
  ExpectWidthOneMatchesCsrLoop(s, in, "second pattern");
  ExpectWidthOneMatchesCsrLoop(built_copy, in, "copy after build");
  ExpectWidthOneMatchesCsrLoop(unbuilt_copy, in, "copy before build");
  s.AssignFromDense({&first}, 30);
  ExpectWidthOneMatchesCsrLoop(s, in, "first pattern again");
}

}  // namespace
}  // namespace gale::la
