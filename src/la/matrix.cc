#include "la/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"

namespace gale::la {

namespace {

// Relaxed is enough: the counter is a monotone event count read only at
// quiescent points (before/after a training step), never used to order
// other memory operations.
std::atomic<uint64_t> g_buffer_allocations{0};

}  // namespace

uint64_t BufferAllocations() {
  return g_buffer_allocations.load(std::memory_order_relaxed);
}

namespace internal {
void CountBufferAllocation() {
  g_buffer_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

namespace {

// Square tile for the out-of-place transpose.
constexpr size_t kTransposeTile = 32;
// Minimum rows per parallel shard; below this the kernels run inline.
constexpr size_t kRowGrain = 8;

// Shard kernels are noinline free functions over plain pointers: inlined
// into the dispatch lambda, the live closure pointer costs the register
// allocator one GPR and the hot loops spill (~15% on SpMM; DESIGN.md §6).
// All matrices are dense row-major, so row r of an n-column matrix is
// base + r * n. The inner j (output-column) sweeps run on the la::simd
// substrate: each output element keeps its scalar expression tree, so
// the vector paths stay bitwise identical to the scalar fallback (see
// simd.h for the determinism argument).

// Row sweep of one output row over columns [j0, n): k-groups of four
// through Axpy4, leftover k through Axpy. a_row: cols wide; b: cols x n.
void MatMulRowSweep(const double* a_row, const double* b, double* out_row,
                    size_t cols, size_t n, size_t j0) {
  size_t k = 0;
  for (; k + 4 <= cols; k += 4) {
    const double* b0 = b + k * n + j0;
    simd::Axpy4(out_row + j0, b0, b0 + n, b0 + 2 * n, b0 + 3 * n, a_row[k],
                a_row[k + 1], a_row[k + 2], a_row[k + 3], n - j0);
  }
  for (; k < cols; ++k) {
    simd::Axpy(out_row + j0, b + k * n + j0, a_row[k], n - j0);
  }
}

// A·B over output rows [r0, r1) in four-row register tiles. a: ? x cols,
// b: cols x n, out: ? x n. The columns a tier's tiles leave (all of them
// on the scalar tier, none on the vector tiers) and the ragged rows take
// the Axpy4/Axpy row sweep, which computes every element with the tile's
// expression tree.
__attribute__((noinline)) void MatMulShard(const double* a, const double* b,
                                           double* out, size_t cols, size_t n,
                                           size_t r0, size_t r1) {
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const double* a_rows = a + i * cols;
    double* out_rows = out + i * n;
    const size_t tiled =
        simd::MatMulTiles4(out_rows, n, a_rows, cols, b, n, cols, n);
    if (tiled < n) {
      for (size_t r = 0; r < 4; ++r) {
        MatMulRowSweep(a_rows + r * cols, b, out_rows + r * n, cols, n, tiled);
      }
    }
  }
  for (; i < r1; ++i) MatMulRowSweep(a + i * cols, b, out + i * n, cols, n, 0);
}

// Aᵀ·B over output rows (= columns of A) [i0, i1). a: rows x a_cols,
// b: rows x n, out: a_cols x n. The output rows a tier's register tiles
// leave (all of them under AVX2 and scalar) take Axpy4/Axpy sweeps over
// four source rows at a time; both add each element's k-groups in
// ascending source-row order.
__attribute__((noinline)) void TransposedMatMulShard(
    const double* a, const double* b, double* out, size_t rows, size_t a_cols,
    size_t n, size_t i0, size_t i1) {
  i0 += simd::TransposedMatMulTiles4(out + i0 * n, n, a + i0, a_cols, b, n,
                                     rows, n, i1 - i0);
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a + r * a_cols;
    const double* a1 = a0 + a_cols;
    const double* a2 = a1 + a_cols;
    const double* a3 = a2 + a_cols;
    const double* b0 = b + r * n;
    for (size_t i = i0; i < i1; ++i) {
      simd::Axpy4(out + i * n, b0, b0 + n, b0 + 2 * n, b0 + 3 * n, a0[i],
                  a1[i], a2[i], a3[i], n);
    }
  }
  for (; r < rows; ++r) {
    const double* a_row = a + r * a_cols;
    const double* b_row = b + r * n;
    for (size_t i = i0; i < i1; ++i) {
      simd::Axpy(out + i * n, b_row, a_row[i], n);
    }
  }
}

// A·Bᵀ over output rows [r0, r1) in register tiles: every element is an
// independent Dot4 (four accumulators, combine (0+1)+(2+3)), and the rows
// a tier's tiles leave call Dot4 itself. a: ? x cols,
// b: b_rows x cols, out: ? x b_rows.
__attribute__((noinline)) void MatMulTransposedShard(
    const double* a, const double* b, double* out, size_t cols, size_t b_rows,
    size_t r0, size_t r1) {
  size_t i = r0 + simd::DotTileRows(out + r0 * b_rows, b_rows, a + r0 * cols,
                                    cols, b, cols, cols, r1 - r0, b_rows);
  for (; i < r1; ++i) {
    for (size_t j = 0; j < b_rows; ++j) {
      out[i * b_rows + j] = simd::Dot4(a + i * cols, b + j * cols, cols);
    }
  }
}

// Tiled transpose of input rows [r0, r1). in: rows x cols, out: cols x rows.
__attribute__((noinline)) void TransposeShard(const double* in, double* out,
                                              size_t rows, size_t cols,
                                              size_t r0, size_t r1) {
  for (size_t cc = 0; cc < cols; cc += kTransposeTile) {
    const size_t c_end = std::min(cols, cc + kTransposeTile);
    for (size_t r = r0; r < r1; ++r) {
      const double* in_row = in + r * cols;
      for (size_t c = cc; c < c_end; ++c) out[c * rows + r] = in_row[c];
    }
  }
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if (!data_.empty()) internal::CountBufferAllocation();
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
  if (!data_.empty()) internal::CountBufferAllocation();
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  if (other.data_.size() > data_.capacity()) {
    internal::CountBufferAllocation();
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  return *this;
}

void Matrix::EnsureShape(size_t rows, size_t cols) {
  const size_t n = rows * cols;
  if (n > data_.capacity()) internal::CountBufferAllocation();
  rows_ = rows;
  cols_ = cols;
  data_.resize(n);
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, double scale,
                             util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(-scale, scale);
  return m;
}

Matrix Matrix::RandomNormal(size_t rows, size_t cols, double stddev,
                            util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Normal(0.0, stddev);
  return m;
}

Matrix Matrix::GlorotUniform(size_t fan_in, size_t fan_out, util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return RandomUniform(fan_in, fan_out, limit, rng);
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    GALE_CHECK_EQ(rows[r].size(), m.cols_) << "ragged row " << r;
    for (size_t c = 0; c < m.cols_; ++c) m.At(r, c) = rows[r][c];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  GALE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Add(data_.data(), data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  GALE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Sub(data_.data(), data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  simd::Scale(data_.data(), data_.data(), scalar, data_.size());
  return *this;
}

Matrix& Matrix::ElementwiseMul(const Matrix& other) {
  GALE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Mul(data_.data(), data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::Apply(const std::function<double(double)>& f) {
  for (double& v : data_) v = f(v);
  return *this;
}

void Matrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(other, &out);
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix* out,
                        bool accumulate) const {
  GALE_CHECK_EQ(cols_, other.rows_) << "MatMul shape mismatch";
  GALE_CHECK(out != this && out != &other) << "MatMulInto aliased output";
  if (accumulate) {
    GALE_CHECK(out->rows_ == rows_ && out->cols_ == other.cols_)
        << "MatMulInto accumulate shape mismatch";
  } else {
    out->EnsureShape(rows_, other.cols_);
    out->Fill(0.0);
  }
  const size_t n = other.cols_;
  // Row-parallel (each shard owns disjoint output rows). Each output
  // element adds ((a0·b0 + a1·b1) + a2·b2) + a3·b3 per k-group in
  // ascending k, then a·b per leftover k, whether it sits in a four-row
  // register tile or in a ragged row sweep; the inner loops are
  // branch-free on purpose — a zero-skip test on dense data defeats
  // vectorization, and genuinely sparse operands belong in SparseMatrix.
  // The expression is fixed, so results are bitwise identical at every
  // thread count.
  util::ParallelFor(0, rows_, kRowGrain, [&](size_t r0, size_t r1) {
    MatMulShard(data_.data(), other.data_.data(), out->data_.data(), cols_, n,
                r0, r1);
  });
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  Matrix out;
  TransposedMatMulInto(other, &out);
  return out;
}

void Matrix::TransposedMatMulInto(const Matrix& other, Matrix* out,
                                  bool accumulate) const {
  GALE_CHECK_EQ(rows_, other.rows_) << "TransposedMatMul shape mismatch";
  GALE_CHECK(out != this && out != &other)
      << "TransposedMatMulInto aliased output";
  if (accumulate) {
    GALE_CHECK(out->rows_ == cols_ && out->cols_ == other.cols_)
        << "TransposedMatMulInto accumulate shape mismatch";
  } else {
    out->EnsureShape(cols_, other.cols_);
    out->Fill(0.0);
  }
  const size_t n = other.cols_;
  // Shards own disjoint ranges of output rows (= columns of A) and sweep
  // all of B once per four source rows, register-blocked like MatMul.
  // The accumulation expression is fixed, so results are bitwise
  // identical at every thread count.
  util::ParallelFor(0, cols_, kRowGrain, [&](size_t i0, size_t i1) {
    TransposedMatMulShard(data_.data(), other.data_.data(), out->data_.data(),
                          rows_, cols_, n, i0, i1);
  });
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  Matrix out;
  MatMulTransposedInto(other, &out);
  return out;
}

void Matrix::MatMulTransposedInto(const Matrix& other, Matrix* out) const {
  GALE_CHECK_EQ(cols_, other.cols_) << "MatMulTransposed shape mismatch";
  GALE_CHECK(out != this && out != &other)
      << "MatMulTransposedInto aliased output";
  // The shard assigns every output element (independent dot products), so
  // no zero-fill is needed and an accumulate flag would be a lie.
  out->EnsureShape(rows_, other.rows_);
  // Row-of-output parallel; every element is an independent Dot4 (tiled
  // in registers), whose combine order is fixed, so results are bitwise
  // identical at every thread count.
  util::ParallelFor(0, rows_, kRowGrain, [&](size_t r0, size_t r1) {
    MatMulTransposedShard(data_.data(), other.data_.data(), out->data_.data(),
                          cols_, other.rows_, r0, r1);
  });
}

Matrix Matrix::Transposed() const {
  Matrix out;
  TransposeInto(&out);
  return out;
}

void Matrix::TransposeInto(Matrix* out) const {
  GALE_CHECK(out != this) << "TransposeInto aliased output";
  // Every element is assigned, so no zero-fill.
  out->EnsureShape(cols_, rows_);
  // Tiled so both the strided reads and the strided writes stay within a
  // kTransposeTile-square working set; shards own disjoint input rows.
  util::ParallelFor(0, rows_, kTransposeTile, [&](size_t r0, size_t r1) {
    TransposeShard(data_.data(), out->data_.data(), rows_, cols_, r0, r1);
  });
}

void Matrix::AddInto(const Matrix& other, Matrix* out) const {
  GALE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  GALE_CHECK(out != this && out != &other) << "AddInto aliased output";
  out->EnsureShape(rows_, cols_);
  simd::Add(out->data_.data(), data_.data(), other.data_.data(),
            data_.size());
}

void Matrix::SubInto(const Matrix& other, Matrix* out) const {
  GALE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  GALE_CHECK(out != this && out != &other) << "SubInto aliased output";
  out->EnsureShape(rows_, cols_);
  simd::Sub(out->data_.data(), data_.data(), other.data_.data(),
            data_.size());
}

void Matrix::ScaleInto(double scalar, Matrix* out) const {
  GALE_CHECK(out != this) << "ScaleInto aliased output";
  out->EnsureShape(rows_, cols_);
  simd::Scale(out->data_.data(), data_.data(), scalar, data_.size());
}

Matrix& Matrix::AddRowBroadcast(const Matrix& row_vector) {
  GALE_CHECK_EQ(row_vector.rows(), 1u);
  GALE_CHECK_EQ(row_vector.cols(), cols_);
  simd::AddRowBroadcast(data_.data(), row_vector.RowPtr(0), rows_, cols_);
  return *this;
}

Matrix Matrix::ColMean() const {
  Matrix out;
  ColMeanInto(&out);
  return out;
}

void Matrix::ColMeanInto(Matrix* out) const {
  ColSumInto(out);
  if (rows_ > 0) *out *= 1.0 / static_cast<double>(rows_);
}

Matrix Matrix::ColSum() const {
  Matrix out;
  ColSumInto(&out);
  return out;
}

void Matrix::ColSumInto(Matrix* out, bool accumulate) const {
  GALE_CHECK(out != this) << "ColSumInto aliased output";
  if (accumulate) {
    GALE_CHECK(out->rows_ == 1 && out->cols_ == cols_)
        << "ColSumInto accumulate shape mismatch";
  } else {
    out->EnsureShape(1, cols_);
    out->Fill(0.0);
  }
  simd::AddColSum(out->RowPtr(0), data_.data(), rows_, cols_);
}

double Matrix::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Matrix Matrix::SelectRows(const std::vector<size_t>& row_indices) const {
  Matrix out;
  SelectRowsInto(row_indices, &out);
  return out;
}

void Matrix::SelectRowsInto(const std::vector<size_t>& row_indices,
                            Matrix* out) const {
  GALE_CHECK(out != this) << "SelectRowsInto aliased output";
  // Every row is copied in whole, so no zero-fill.
  out->EnsureShape(row_indices.size(), cols_);
  for (size_t i = 0; i < row_indices.size(); ++i) {
    GALE_CHECK_LT(row_indices[i], rows_);
    std::copy(RowPtr(row_indices[i]), RowPtr(row_indices[i]) + cols_,
              out->RowPtr(i));
  }
}

double Matrix::RowDistanceSquared(size_t r, const Matrix& other,
                                  size_t s) const {
  GALE_CHECK_EQ(cols_, other.cols_);
  GALE_CHECK_LT(r, rows_);
  GALE_CHECK_LT(s, other.rows_);
  const double* a = RowPtr(r);
  const double* b = other.RowPtr(s);
  double acc = 0.0;
  for (size_t c = 0; c < cols_; ++c) {
    const double d = a[c] - b[c];
    acc += d * d;
  }
  return acc;
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::DebugString() const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")";
  if (rows_ <= 8 && cols_ <= 8) {
    os << " [";
    for (size_t r = 0; r < rows_; ++r) {
      os << (r == 0 ? "[" : " [");
      for (size_t c = 0; c < cols_; ++c) {
        os << At(r, c) << (c + 1 < cols_ ? ", " : "");
      }
      os << "]" << (r + 1 < rows_ ? "\n" : "");
    }
    os << "]";
  }
  return os.str();
}

}  // namespace gale::la
