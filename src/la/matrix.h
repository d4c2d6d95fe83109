// Dense row-major matrix of doubles: the numerical workhorse for the
// neural-network stack, feature engineering, and the query selector.
//
// Design notes:
//  * Row-major storage so that per-node feature rows are contiguous; the
//    learning code mostly iterates row-wise (one row per graph node).
//  * All shape violations are programming errors and fail fast via
//    GALE_CHECK rather than returning Status: shape mismatches inside the
//    training loop indicate a bug, not recoverable input.
//  * No expression templates: the matrices here are small (thousands of
//    rows, tens-to-hundreds of columns) and clarity wins.
//  * The O(n^3)/O(n^2 d) kernels (MatMul and friends, Transposed) are
//    register-blocked and row-parallel on util::ParallelFor, with the
//    inner output-column sweeps on the la::simd substrate. Shards own
//    disjoint output rows and per-element accumulation order is fixed, so
//    results are bitwise identical at every GALE_NUM_THREADS setting and
//    on every SIMD path (see util/parallel.h and la/simd.h for the
//    determinism contracts).
//  * Storage is a simd::AlignedVector: the buffer base is 64-byte
//    (cache-line) aligned, which also satisfies every vector ISA the
//    simd layer dispatches to. Row pointers inside the buffer are only
//    8-byte aligned, so the kernels use unaligned vector loads.

#ifndef GALE_LA_MATRIX_H_
#define GALE_LA_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "la/simd.h"
#include "util/check.h"
#include "util/rng.h"

namespace gale::la {

// Process-wide count of dense-buffer heap acquisitions: constructing a
// non-empty matrix, copying one, or growing one past its capacity each
// bump it by one. Always compiled in (one relaxed atomic increment per
// allocation, which is noise next to the allocation itself); the
// steady-state training tests and la::ScopedAllocFreeCheck assert that
// the delta across a fixed-shape training step is zero.
uint64_t BufferAllocations();

namespace internal {
void CountBufferAllocation();
}  // namespace internal

class Matrix {
 public:
  // An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  // A rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  // Copies count toward BufferAllocations() when they acquire memory
  // (copy construction of a non-empty source, or assignment past the
  // destination's capacity). Moves never allocate and never count.
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  // Factory helpers.
  static Matrix Identity(size_t n);
  // Entries i.i.d. uniform in [-scale, scale].
  static Matrix RandomUniform(size_t rows, size_t cols, double scale,
                              util::Rng& rng);
  // Entries i.i.d. N(0, stddev^2).
  static Matrix RandomNormal(size_t rows, size_t cols, double stddev,
                             util::Rng& rng);
  // Glorot/Xavier-uniform initialization for a fan_in x fan_out weight.
  static Matrix GlorotUniform(size_t fan_in, size_t fan_out, util::Rng& rng);
  // Builds a matrix from nested initializer-style data (row vectors).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) {
    GALE_DCHECK_INDEX(r, rows_);
    GALE_DCHECK_INDEX(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    GALE_DCHECK_INDEX(r, rows_);
    GALE_DCHECK_INDEX(c, cols_);
    return data_[r * cols_ + c];
  }
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  // Raw pointer to row `r` (cols() contiguous doubles). r == rows() is
  // allowed as a one-past-the-end base pointer (kernels pass RowPtr(0) on
  // possibly-empty outputs); dereferencing stays the caller's contract.
  double* RowPtr(size_t r) {
    GALE_DCHECK_LE(r, rows_);
    return data_.data() + r * cols_;
  }
  const double* RowPtr(size_t r) const {
    GALE_DCHECK_LE(r, rows_);
    return data_.data() + r * cols_;
  }

  simd::AlignedVector& data() { return data_; }
  const simd::AlignedVector& data() const { return data_; }

  // Reshapes to rows x cols, reusing the existing buffer when capacity
  // allows (the steady-state case: no allocation, no counter bump).
  // Contents are unspecified afterwards — callers either overwrite every
  // entry or Fill() first. The *Into kernels call this on their outputs,
  // so fixed-shape training loops never touch the heap after warm-up.
  void EnsureShape(size_t rows, size_t cols);

  // --- elementwise, in place ---
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);
  // Hadamard (elementwise) product.
  Matrix& ElementwiseMul(const Matrix& other);
  // Applies `f` to every entry.
  Matrix& Apply(const std::function<double(double)>& f);
  void Fill(double value);

  // --- elementwise, copying ---
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;

  // Matrix product this(rows x k) * other(k x cols); checks shapes.
  Matrix MatMul(const Matrix& other) const;
  // this^T * other without materializing the transpose.
  Matrix TransposedMatMul(const Matrix& other) const;
  // this * other^T without materializing the transpose.
  Matrix MatMulTransposed(const Matrix& other) const;

  Matrix Transposed() const;

  // --- out-parameter kernels ---
  // Each writes into `*out` (reshaped via EnsureShape, so a warm buffer of
  // the right capacity is reused without allocating) and runs the same
  // noinline shard kernels as the allocating form above, so the result is
  // bitwise identical to it at every thread count. `out` must not alias
  // `this` or `other`. The allocating forms are thin wrappers over these.
  //
  // With accumulate == true the product is added onto the existing
  // contents of `*out` (whose shape must already match) instead of
  // overwriting them — the nn Backward passes accumulate gradients
  // directly into persistent grad buffers this way.
  void MatMulInto(const Matrix& other, Matrix* out,
                  bool accumulate = false) const;
  void TransposedMatMulInto(const Matrix& other, Matrix* out,
                            bool accumulate = false) const;
  void MatMulTransposedInto(const Matrix& other, Matrix* out) const;
  void TransposeInto(Matrix* out) const;
  // out = this + other / this - other / this * scalar, elementwise.
  void AddInto(const Matrix& other, Matrix* out) const;
  void SubInto(const Matrix& other, Matrix* out) const;
  void ScaleInto(double scalar, Matrix* out) const;

  // Adds `row_vector` (1 x cols) to every row; the bias broadcast.
  Matrix& AddRowBroadcast(const Matrix& row_vector);

  // Column means as a 1 x cols matrix.
  Matrix ColMean() const;
  // Column sums as a 1 x cols matrix.
  Matrix ColSum() const;
  // Out-parameter reductions (1 x cols outputs, same contract as the
  // *Into kernels above). ColSumInto with accumulate == true adds the
  // column sums onto the existing contents (bias-gradient accumulation).
  void ColMeanInto(Matrix* out) const;
  void ColSumInto(Matrix* out, bool accumulate = false) const;

  // Sum of all entries.
  double Sum() const;
  // Frobenius norm.
  double FrobeniusNorm() const;

  // Extracts the sub-matrix of the given rows (in the given order).
  Matrix SelectRows(const std::vector<size_t>& row_indices) const;
  // Out-parameter row selection (same contract as the *Into kernels).
  void SelectRowsInto(const std::vector<size_t>& row_indices,
                      Matrix* out) const;

  // Squared Euclidean distance between row r of this and row s of other.
  double RowDistanceSquared(size_t r, const Matrix& other, size_t s) const;

  // True if all entries of the two matrices differ by at most `tol`.
  bool AllClose(const Matrix& other, double tol) const;

  // Debug string "Matrix(3x4)" plus contents for small matrices.
  std::string DebugString() const;

 private:
  size_t rows_;
  size_t cols_;
  simd::AlignedVector data_;
};

}  // namespace gale::la

#endif  // GALE_LA_MATRIX_H_
