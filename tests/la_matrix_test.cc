#include "la/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace gale::la {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
  m.Fill(0.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 0.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Sum(), 3.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 6.0);
}

TEST(MatrixTest, MatMulAgainstHand) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
}

TEST(MatrixTest, TransposedMatMulMatchesExplicitTranspose) {
  util::Rng rng(1);
  Matrix a = Matrix::RandomNormal(7, 4, 1.0, rng);
  Matrix b = Matrix::RandomNormal(7, 5, 1.0, rng);
  Matrix fused = a.TransposedMatMul(b);
  Matrix naive = a.Transposed().MatMul(b);
  EXPECT_TRUE(fused.AllClose(naive, 1e-12));
}

TEST(MatrixTest, MatMulTransposedMatchesExplicitTranspose) {
  util::Rng rng(2);
  Matrix a = Matrix::RandomNormal(6, 4, 1.0, rng);
  Matrix b = Matrix::RandomNormal(3, 4, 1.0, rng);
  Matrix fused = a.MatMulTransposed(b);
  Matrix naive = a.MatMul(b.Transposed());
  EXPECT_TRUE(fused.AllClose(naive, 1e-12));
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum.At(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff.At(0, 0), 9.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled.At(1, 0), 6.0);
  a.ElementwiseMul(b);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 40.0);
}

TEST(MatrixTest, ApplyAndBroadcast) {
  Matrix m = Matrix::FromRows({{1, -2}, {-3, 4}});
  m.Apply([](double v) { return v < 0 ? 0.0 : v; });
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 4.0);

  Matrix bias = Matrix::FromRows({{10, 100}});
  m.AddRowBroadcast(bias);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 104.0);
}

TEST(MatrixTest, ColumnAggregates) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix mean = m.ColMean();
  EXPECT_DOUBLE_EQ(mean.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mean.At(0, 1), 3.0);
  Matrix sum = m.ColSum();
  EXPECT_DOUBLE_EQ(sum.At(0, 1), 6.0);
}

TEST(MatrixTest, NormsAndDistances) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.RowDistanceSquared(0, m, 1), 25.0);
}

TEST(MatrixTest, SelectRows) {
  Matrix m = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Matrix sel = m.SelectRows({2, 0});
  EXPECT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sel.At(1, 0), 1.0);
}

TEST(MatrixTest, AllClose) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}});
  Matrix b = Matrix::FromRows({{1.0 + 1e-9, 2.0}});
  EXPECT_TRUE(a.AllClose(b, 1e-8));
  EXPECT_FALSE(a.AllClose(b, 1e-10));
  Matrix c(2, 1);
  EXPECT_FALSE(a.AllClose(c, 1.0)) << "shape mismatch is never close";
}

TEST(MatrixTest, GlorotBoundsRespectFanInOut) {
  util::Rng rng(3);
  Matrix w = Matrix::GlorotUniform(30, 20, rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (double v : w.data()) {
    EXPECT_LE(std::abs(v), limit);
  }
}

TEST(MatrixTest, RandomNormalStatistics) {
  util::Rng rng(4);
  Matrix m = Matrix::RandomNormal(100, 100, 2.0, rng);
  double sq = 0.0;
  for (double v : m.data()) sq += v * v;
  EXPECT_NEAR(sq / static_cast<double>(m.size()), 4.0, 0.2);
}

}  // namespace
}  // namespace gale::la
