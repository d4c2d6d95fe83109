// Compressed sparse row (CSR) matrix, used for graph adjacency operators:
// the symmetric normalized adjacency of GCN layers, the label-propagation
// operator, and personalized-PageRank walks.
//
// Storage layout (the cache-blocked substrate):
//  * Column indices are packed `uint32_t` (half the footprint of size_t,
//    twice the index density per cache line in the gather loops); builds
//    fail fast if a dimension cannot be indexed in 32 bits.
//  * Index and value arrays live in 64-byte-aligned storage
//    (simd::AlignedAllocator), matching the dense substrate's alignment
//    contract.
//  * Rows are pre-partitioned into blocks of roughly equal nonzero count
//    (`block_row_`). The parallel products shard over blocks instead of
//    raw rows, so skewed degree distributions (hubs next to leaves) still
//    yield balanced shards. The partition depends only on the sparsity
//    pattern — never on the thread count — and every output row is an
//    independent gather, so results stay bitwise identical at every
//    GALE_NUM_THREADS setting.
//
// MultiplyInto and MultiplyStridedInto run one CSR gather
// (simd::CsrGatherStrided, dispatched once per shard): row-parallel over
// disjoint output rows (util::ParallelFor), every element summed from
// +0.0 in ascending nonzero order, so the results are bitwise identical at
// every GALE_NUM_THREADS setting and ISA. The GCN layers, label
// propagation, GAugment's neighbour mean and PPR all use it.
//
// A single column (width 1: an SpMV, a one-seed PPR sweep) has no output
// columns to put in SIMD lanes, so from AVX2 up it runs over a sliced view
// instead (SELL-C-σ with C = 4; Kreutzer et al., SIAM J. Sci. Comput.
// 2014): the rows stably sorted by length and grouped four at a time,
// each chunk's entries stored step-major, so one 4-lane accumulator sums
// four rows (simd::SlicedGather). Each lane adds its row's terms in
// ascending k from +0.0 and a lane past its row's end adds an exact +0.0,
// so every element keeps the CSR gather's bits; the shards are fixed chunk
// ranges. The view costs about 12 bytes per nonzero (plus padding, small
// once the rows are sorted). It is built by the first width-1 product,
// under the transpose view's contract: that product runs outside parallel
// regions and alone on the matrix. Copies share the built view, and
// AssignFromDense drops it. The scalar tier keeps the CSR gather at every
// width.
//
// Two products serve a different contract. GroupedMultiplyInto and
// GroupedTransposedMultiplyInto are the dense Matrix::MatMulInto /
// TransposedMatMulInto with the terms of exact-zero entries dropped, so a
// mostly-zero operand (the encoder's hashed tokens and one-hots) is
// multiplied at the cost of its nonzeros with the dense kernel's bits.
// Dropping a term a·b with a = ±0 and b finite leaves a left fold
// unchanged up to the sign of a zero, and an accumulator that holds no
// −0.0 absorbs that sign, so keeping the dense kernel's expression tree
// per k-group (sum the group's nonzero terms left to right, then add the
// group onto the output) reproduces it exactly. The gather keeps its own
// order: the graph operators' goldens depend on it.

#ifndef GALE_LA_SPARSE_MATRIX_H_
#define GALE_LA_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "la/matrix.h"

namespace gale::la {

// One nonzero entry (used to build a SparseMatrix).
struct Triplet {
  size_t row;
  size_t col;
  double value;
};

// CSR matrix, immutable between builds. Duplicate (row, col) triplets
// are summed.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  // Builds from triplets; duplicates are coalesced by summation.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  // Rebuilds this matrix in place from the first `rows` rows of the
  // vertical stack of `blocks` (equal widths), keeping the entries that
  // are not ±0.0, and builds the transpose view eagerly. The buffers are
  // reused: a rebuild within their capacity does not allocate (a growth
  // counts toward la::BufferAllocations(), like a Matrix growth).
  void AssignFromDense(std::initializer_list<const Matrix*> blocks,
                       size_t rows);

  // The symmetric renormalized adjacency of Kipf-Welling GCNs:
  //   D̃^{-1/2} (A + I) D̃^{-1/2}
  // with D̃ the degree matrix of A + I. `edges` holds undirected edges as
  // (u, v) pairs; each is expanded to both directions.
  static SparseMatrix NormalizedAdjacency(
      size_t n, const std::vector<std::pair<size_t, size_t>>& edges);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  // Row access: entries of row r live at indices [RowBegin(r), RowEnd(r)).
  size_t RowBegin(size_t r) const {
    GALE_DCHECK_INDEX(r, rows_);
    return row_ptr_[r];
  }
  size_t RowEnd(size_t r) const {
    GALE_DCHECK_INDEX(r, rows_);
    return row_ptr_[r + 1];
  }
  size_t ColIndex(size_t k) const {
    GALE_DCHECK_INDEX(k, col_idx_.size());
    return col_idx_[k];
  }
  double Value(size_t k) const {
    GALE_DCHECK_INDEX(k, values_.size());
    return values_[k];
  }

  // Number of nnz-balanced row blocks the parallel products shard over.
  size_t num_row_blocks() const {
    return block_row_.empty() ? 0 : block_row_.size() - 1;
  }

  // Sparse x dense product: (rows x cols) * (cols x d) -> rows x d.
  Matrix Multiply(const Matrix& dense) const;
  // Out-parameter form: overwrites `*out` (reshaped via EnsureShape, so a
  // warm buffer is reused without allocating). This is
  // MultiplyStridedInto at width = stride = d. `out` must not alias
  // `dense`.
  void MultiplyInto(const Matrix& dense, Matrix* out) const;

  // Strided multi-vector product for the batched PPR sweep: `in` and
  // `out` are row-major (cols x stride) and (rows x stride) buffers of
  // which only the first `width` columns are live. Computes
  //   out[r][j] = sum_k value[k] * in[col[k]][j]   for j < width
  // overwriting (zero-filling) the live columns of every output row and
  // leaving columns [width, stride) untouched. Column j's accumulation
  // order over k does not depend on width, so each live column is bitwise
  // identical to an SpMV (width = stride = 1) of that column. Width 1 runs
  // over the sliced view from AVX2 up (see the file comment). `out` must not
  // alias `in`; both row strides must be >= width.
  void MultiplyStridedInto(const double* in, size_t width, size_t stride,
                           double* out) const;

  // Grouped A·B, overwriting: bitwise equal to ToDense().MatMulInto(b,
  // ...) for finite `b`, at every thread count and ISA. Only rows
  // [0, rows()) of `*out` are written, and `*out` must already have at
  // least rows() rows and b.cols() columns: the rows past rows() are left
  // untouched for the caller (the split first layer of nn::Dense fills
  // them with a dense product). Shards own disjoint output rows. `out`
  // must not alias `b`.
  void GroupedMultiplyInto(const Matrix& b, Matrix* out) const;
  // Grouped Aᵀ·B over the first rows() rows of `b` (which may have more),
  // added onto `*out` (cols() x b.cols(), holding no −0.0): bitwise equal
  // to ToDense().TransposedMatMulInto(..., accumulate = true) on those
  // rows for finite `b`. Runs on the transpose (CSC) view, built once and
  // cached, in panels of B rows, sharded over disjoint output rows; each
  // output row adds its groups in ascending source-row order.
  void GroupedTransposedMultiplyInto(const Matrix& b, Matrix* out) const;

  // Densifies; only for tests/small matrices.
  Matrix ToDense() const;

 private:
  // The length-sorted sliced layout (sparse_matrix.cc).
  struct SlicedView;

  void EnsureTransposeView() const;
  // Builds the transpose view from the CSR arrays, reusing its buffers.
  void BuildTransposeView() const;
  // Builds the sliced view on its first use (same contract as the
  // transpose view: outside parallel regions, dropped by AssignFromDense).
  const SlicedView& EnsureSlicedView() const;

  size_t rows_;
  size_t cols_;
  simd::AlignedSizeVector row_ptr_;  // size rows_ + 1
  simd::AlignedU32Vector col_idx_;   // size nnz, packed 32-bit columns
  simd::AlignedVector values_;       // size nnz
  // nnz-balanced row partition: block b covers rows
  // [block_row_[b], block_row_[b + 1]).
  simd::AlignedU32Vector block_row_;

  // Cached transpose (CSC) view for the grouped Aᵀ·B, built lazily
  // on first use or eagerly by AssignFromDense; logically const (the
  // matrix is immutable between builds), hence mutable.
  mutable bool transpose_built_ = false;
  mutable simd::AlignedSizeVector t_ptr_;        // size cols_ + 1
  mutable simd::AlignedU32Vector t_idx_;         // source rows, size nnz
  mutable simd::AlignedVector t_val_;            // size nnz
  mutable simd::AlignedU32Vector t_block_row_;   // nnz-balanced, over cols_

  // Cached sliced view for the width-1 product, built lazily by the
  // first width-1 product on AVX2 or AVX-512. It never changes once built,
  // so copies share it; AssignFromDense drops this matrix's reference.
  mutable std::shared_ptr<const SlicedView> sliced_;
};

}  // namespace gale::la

#endif  // GALE_LA_SPARSE_MATRIX_H_
