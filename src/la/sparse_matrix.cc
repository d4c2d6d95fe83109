#include "la/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "la/simd.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gale::la {

namespace {

// Target work units per row block. A block closes once its accumulated
// cost (nonzeros plus a small per-row overhead) reaches this, so blocks
// hold many cheap rows but only a few hub rows — the shards the parallel
// products hand out stay balanced under skewed degree distributions. The
// target is large enough that per-block dispatch overhead is noise.
constexpr size_t kBlockCostTarget = 4096;
// Per-row overhead charged on top of the row's nonzeros (loop setup, the
// row-pointer load, the output-row base computation).
constexpr size_t kRowCost = 4;
// Minimum sliced blocks per shard of the width-1 product. A block's
// single-column work is a few microseconds, so a sweep of SP's size
// (~10 blocks, ~15 µs) costs less than handing shards to the pool: it
// runs inline, and only sweeps past 2·kSlicedGrain blocks split.
constexpr size_t kSlicedGrain = 32;

// B rows per panel of the grouped Aᵀ·B: every output row takes its terms
// from one panel before the next, so the panel stays cache-resident while
// all of a shard's output rows read it. A multiple of 4, so no k-group
// straddles two panels.
constexpr size_t kPanelRows = 512;
// Output rows whose panel cursors one pass of the grouped Aᵀ·B keeps.
constexpr size_t kCursorRows = 256;

// Rows [0, rows) partitioned into contiguous blocks of ~kBlockCostTarget
// cost each, written into `*blocks` (its capacity is reused). A "row" of
// `row_ptr` may stand for `lanes` rows whose entries sit `lanes` to a slot
// (the sliced view's chunks of four); it costs what those rows would.
// Depends only on the sparsity pattern, never the thread count.
void BuildRowBlocks(const size_t* row_ptr, size_t rows, size_t lanes,
                    simd::AlignedU32Vector* blocks) {
  blocks->clear();
  blocks->push_back(0);
  size_t cost = 0;
  for (size_t r = 0; r < rows; ++r) {
    cost += lanes * (kRowCost + (row_ptr[r + 1] - row_ptr[r]));
    if (cost >= kBlockCostTarget) {
      blocks->push_back(static_cast<uint32_t>(r + 1));
      cost = 0;
    }
  }
  if (blocks->back() != rows) blocks->push_back(static_cast<uint32_t>(rows));
}

// True when no entry is −0.0: the grouped products' accumulator contract.
bool NoNegativeZero(const double* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // gale-lint: allow(float-compare): exact zero is the contract
    if (p[i] == 0.0 && std::signbit(p[i])) return false;
  }
  return true;
}

// One shard of the grouped A·B: output rows [r0, r1), zero-filled first.
// b: cols x n, out: rows x n.
__attribute__((noinline)) void GroupedGatherRows(
    const size_t* ptr, const uint32_t* idx, const double* vals,
    size_t aligned, const double* b, size_t n, double* out, size_t r0,
    size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* out_row = out + r * n;
    std::fill(out_row, out_row + n, 0.0);
    simd::GroupedAxpyLine(out_row, b, n, idx, vals, ptr[r], ptr[r + 1],
                          aligned);
  }
}

// One shard of the grouped Aᵀ·B over the transpose view: output rows
// (= columns of A) [c0, c1). B is swept in panels of kPanelRows rows in
// ascending order, and each output row takes its terms from a panel
// before moving on, so every output element still adds its groups in
// ascending source-row order, onto the output's existing contents.
// b: rows x n, out: cols x n.
__attribute__((noinline)) void GroupedGatherColumns(
    const size_t* ptr, const uint32_t* idx, const double* vals, size_t rows,
    size_t aligned, const double* b, size_t n, double* out, size_t c0,
    size_t c1) {
  size_t cursor[kCursorRows];
  for (size_t cc = c0; cc < c1; cc += kCursorRows) {
    const size_t ce = std::min(c1, cc + kCursorRows);
    for (size_t c = cc; c < ce; ++c) cursor[c - cc] = ptr[c];
    for (size_t p0 = 0; p0 < rows; p0 += kPanelRows) {
      const size_t p1 = std::min(rows, p0 + kPanelRows);
      for (size_t c = cc; c < ce; ++c) {
        const size_t k = cursor[c - cc];
        size_t end = k;
        while (end < ptr[c + 1] && idx[end] < p1) ++end;
        simd::GroupedAxpyLine(out + c * n, b, n, idx, vals, k, end, aligned);
        cursor[c - cc] = end;
      }
    }
  }
}

}  // namespace

// SELL-C-σ with C = 4 and σ = all rows: the rows stably sorted by
// descending length and grouped four at a time into chunks, each chunk's
// entries stored step-major, one entry per lane per step. Lanes past
// their row's end hold column 0 and value 0.
struct SparseMatrix::SlicedView {
  simd::AlignedSizeVector chunk_ptr;  // steps, size chunks + 1
  simd::AlignedU32Vector len;         // lane lengths, 4 per chunk
  simd::AlignedU32Vector row;         // source row of each lane, size rows
  simd::AlignedU32Vector idx;         // 4 column ids per step
  simd::AlignedVector val;            // 4 values per step
  simd::AlignedU32Vector block;       // cost-balanced, over chunks
};

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  // The packed layout indexes columns with uint32 and block starts (row
  // positions up to and including `rows`) with uint32 as well.
  GALE_CHECK(cols <= std::numeric_limits<uint32_t>::max())
      << "CSR column index overflows the packed uint32 layout";
  GALE_CHECK(rows < std::numeric_limits<uint32_t>::max())
      << "CSR row count overflows the packed uint32 layout";
  for (const Triplet& t : triplets) {
    GALE_CHECK_LT(t.row, rows);
    GALE_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(static_cast<uint32_t>(triplets[i].col));
    m.values_.push_back(sum);
    m.row_ptr_[triplets[i].row + 1] += 1;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  BuildRowBlocks(m.row_ptr_.data(), rows, 1, &m.block_row_);
  return m;
}

void SparseMatrix::AssignFromDense(std::initializer_list<const Matrix*> blocks,
                                   size_t rows) {
  GALE_CHECK(blocks.size() > 0) << "AssignFromDense needs a block";
  const size_t cols = (*blocks.begin())->cols();
  size_t stacked = 0;
  for (const Matrix* block : blocks) {
    GALE_CHECK_EQ(block->cols(), cols) << "AssignFromDense ragged blocks";
    stacked += block->rows();
  }
  GALE_CHECK_LE(rows, stacked) << "AssignFromDense past the stack";
  GALE_CHECK(cols <= std::numeric_limits<uint32_t>::max())
      << "CSR column index overflows the packed uint32 layout";
  GALE_CHECK(rows < std::numeric_limits<uint32_t>::max())
      << "CSR row count overflows the packed uint32 layout";
  // Calls `fn(r, row pointer)` for the first `rows` rows of the stack.
  const auto for_each_row = [&](const auto& fn) {
    size_t r = 0;
    for (const Matrix* block : blocks) {
      for (size_t i = 0; i < block->rows() && r < rows; ++i, ++r) {
        fn(r, block->RowPtr(i));
      }
    }
  };
  const size_t capacities[] = {
      row_ptr_.capacity(), col_idx_.capacity(), values_.capacity(),
      block_row_.capacity(), t_ptr_.capacity(), t_idx_.capacity(),
      t_val_.capacity(), t_block_row_.capacity()};

  rows_ = rows;
  cols_ = cols;
  row_ptr_.resize(rows + 1);
  row_ptr_[0] = 0;
  for_each_row([&](size_t r, const double* x) {
    size_t count = 0;
    // gale-lint: allow(float-compare): exact zeros are what is dropped
    for (size_t c = 0; c < cols; ++c) count += x[c] != 0.0;
    row_ptr_[r + 1] = row_ptr_[r] + count;
  });
  // Branch-free compaction: every entry is written at the cursor, which
  // advances past nonzeros only. A row's trailing zeros land on the next
  // row's first slot (rewritten by that row) or, after the last row, on
  // one slot of slack.
  const size_t nnz = row_ptr_[rows];
  col_idx_.resize(nnz + 1);
  values_.resize(nnz + 1);
  for_each_row([&](size_t r, const double* x) {
    size_t k = row_ptr_[r];
    for (size_t c = 0; c < cols; ++c) {
      col_idx_[k] = static_cast<uint32_t>(c);
      values_[k] = x[c];
      // gale-lint: allow(float-compare): exact zeros are what is dropped
      k += x[c] != 0.0;
    }
  });
  col_idx_.resize(nnz);
  values_.resize(nnz);
  BuildRowBlocks(row_ptr_.data(), rows, 1, &block_row_);
  BuildTransposeView();
  sliced_.reset();

  const size_t after[] = {
      row_ptr_.capacity(), col_idx_.capacity(), values_.capacity(),
      block_row_.capacity(), t_ptr_.capacity(), t_idx_.capacity(),
      t_val_.capacity(), t_block_row_.capacity()};
  for (size_t i = 0; i < std::size(after); ++i) {
    if (after[i] != capacities[i]) internal::CountBufferAllocation();
  }
}

SparseMatrix SparseMatrix::NormalizedAdjacency(
    size_t n, const std::vector<std::pair<size_t, size_t>>& edges) {
  // Degrees of A + I (self loop contributes 1 to every node).
  std::vector<double> degree(n, 1.0);
  for (const auto& [u, v] : edges) {
    GALE_CHECK_LT(u, n);
    GALE_CHECK_LT(v, n);
    degree[u] += 1.0;
    degree[v] += 1.0;
  }
  std::vector<double> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) inv_sqrt[i] = 1.0 / std::sqrt(degree[i]);
  GALE_CHECK(n < std::numeric_limits<uint32_t>::max())
      << "CSR row count overflows the packed uint32 layout";

  // The pattern is A + I made symmetric: the self loop plus both
  // directions of each non-loop edge. It is built without sorting triplets.
  // First every node lists its entries' columns in edge order (`adj`),
  // then visiting the columns c in ascending order and appending c to the
  // rows r that c lists puts every row's columns in ascending order: the
  // pattern is symmetric, so r lists c as often as c lists r.
  std::vector<size_t> start(n + 1, 0);
  for (size_t i = 0; i < n; ++i) start[i + 1] = 1;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;  // self loops are the diagonal entry
    start[u + 1] += 1;
    start[v + 1] += 1;
  }
  for (size_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<uint32_t> adj(start[n]);
  std::vector<size_t> cursor(n);
  std::copy(start.begin(), start.end() - 1, cursor.begin());
  for (size_t i = 0; i < n; ++i) adj[cursor[i]++] = static_cast<uint32_t>(i);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adj[cursor[u]++] = static_cast<uint32_t>(v);
    adj[cursor[v]++] = static_cast<uint32_t>(u);
  }

  SparseMatrix m;
  m.rows_ = n;
  m.cols_ = n;
  m.col_idx_.resize(start[n]);
  m.values_.resize(start[n]);
  std::copy(start.begin(), start.end() - 1, cursor.begin());
  for (size_t c = 0; c < n; ++c) {
    for (size_t k = start[c]; k < start[c + 1]; ++k) {
      const size_t r = adj[k];
      const size_t pos = cursor[r]++;
      m.col_idx_[pos] = static_cast<uint32_t>(c);
      // inv_sqrt[u] * inv_sqrt[v] for the edge (u, v) in either direction:
      // a product does not depend on its operands' order.
      m.values_[pos] = inv_sqrt[r] * inv_sqrt[c];
    }
  }

  // Sum the duplicate entries of multi-edges in place. They carry equal
  // weights, so the sum is the one FromTriplets forms in any order.
  m.row_ptr_.resize(n + 1);
  m.row_ptr_[0] = 0;
  size_t out = 0;
  for (size_t r = 0; r < n; ++r) {
    for (size_t k = start[r]; k < start[r + 1];) {
      const uint32_t col = m.col_idx_[k];
      double sum = 0.0;
      for (; k < start[r + 1] && m.col_idx_[k] == col; ++k) {
        sum += m.values_[k];
      }
      m.col_idx_[out] = col;
      m.values_[out] = sum;
      ++out;
    }
    m.row_ptr_[r + 1] = out;
  }
  m.col_idx_.resize(out);
  m.values_.resize(out);
  BuildRowBlocks(m.row_ptr_.data(), n, 1, &m.block_row_);
  return m;
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  Matrix out;
  MultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::MultiplyInto(const Matrix& dense, Matrix* out) const {
  GALE_CHECK_EQ(cols_, dense.rows()) << "SpMM shape mismatch";
  GALE_CHECK(out != &dense) << "MultiplyInto aliased output";
  out->EnsureShape(rows_, dense.cols());
  const size_t d = dense.cols();
  if (d == 0 || rows_ == 0) return;  // empty output, nothing to gather
  MultiplyStridedInto(dense.RowPtr(0), d, d, out->RowPtr(0));
}

void SparseMatrix::MultiplyStridedInto(const double* in, size_t width,
                                       size_t stride, double* out) const {
  GALE_CHECK(width > 0 && width <= stride) << "strided SpMM width/stride";
  GALE_CHECK(in != out) << "MultiplyStridedInto aliased output";
  // A single column puts four rows in the lanes of one accumulator, over
  // the sliced view; its shards are fixed chunk ranges, so the bits are
  // the same at every thread count.
  if (width == 1 && stride <= std::numeric_limits<uint32_t>::max() &&
      simd::SlicedGatherActive()) {
    const SlicedView& v = EnsureSlicedView();
    util::ParallelFor(
        0, v.block.size() - 1, kSlicedGrain, [&](size_t b0, size_t b1) {
          simd::SlicedGather(v.chunk_ptr.data(), v.len.data(), v.row.data(),
                             rows_, v.idx.data(), v.val.data(), in, stride,
                             out, v.block[b0], v.block[b1]);
        });
    return;
  }
  util::ParallelFor(0, num_row_blocks(), 1, [&](size_t b0, size_t b1) {
    // One ISA dispatch per shard, not one per nonzero.
    simd::CsrGatherStrided(row_ptr_.data(), col_idx_.data(), values_.data(),
                           in, width, stride, out, block_row_[b0],
                           block_row_[b1]);
  });
}

void SparseMatrix::EnsureTransposeView() const {
  if (transpose_built_) return;
  // Built outside any parallel region (the layer threading contract: one
  // loop owns the matrix, parallelism lives inside kernels), so the lazy
  // mutation cannot race.
  GALE_DCHECK(!util::InParallelRegion())
      << "transpose view first built inside a parallel region";
  BuildTransposeView();
}

const SparseMatrix::SlicedView& SparseMatrix::EnsureSlicedView() const {
  if (sliced_ != nullptr) return *sliced_;
  GALE_DCHECK(!util::InParallelRegion())
      << "sliced view first built inside a parallel region";
  auto view = std::make_shared<SlicedView>();
  // Stable counting sort of the rows by descending length, so each chunk
  // of four holds rows of (nearly) equal length and pads little.
  size_t max_len = 0;
  for (size_t r = 0; r < rows_; ++r) {
    max_len = std::max<size_t>(max_len, row_ptr_[r + 1] - row_ptr_[r]);
  }
  std::vector<size_t> slot(max_len + 2, 0);
  for (size_t r = 0; r < rows_; ++r) {
    slot[max_len - (row_ptr_[r + 1] - row_ptr_[r]) + 1] += 1;
  }
  for (size_t b = 0; b <= max_len; ++b) slot[b + 1] += slot[b];
  view->row.resize(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    view->row[slot[max_len - (row_ptr_[r + 1] - row_ptr_[r])]++] =
        static_cast<uint32_t>(r);
  }

  // A chunk is as many steps long as its first (longest) row.
  const size_t chunks = (rows_ + 3) / 4;
  view->len.assign(4 * chunks, 0);
  for (size_t i = 0; i < rows_; ++i) {
    const size_t r = view->row[i];
    view->len[i] = static_cast<uint32_t>(row_ptr_[r + 1] - row_ptr_[r]);
  }
  view->chunk_ptr.resize(chunks + 1);
  view->chunk_ptr[0] = 0;
  for (size_t c = 0; c < chunks; ++c) {
    view->chunk_ptr[c + 1] = view->chunk_ptr[c] + view->len[4 * c];
  }
  const size_t steps = view->chunk_ptr[chunks];
  view->idx.assign(4 * steps, 0);
  view->val.assign(4 * steps, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const size_t r = view->row[i];
    // Lane i % 4 of chunk i / 4; entry k is step k - row_ptr_[r] of it.
    size_t pos = 4 * view->chunk_ptr[i / 4] + i % 4;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k, pos += 4) {
      // The kernel's gathers are invisible to ASan: check the columns here.
      GALE_DCHECK_LT(col_idx_[k], cols_) << "CSR column out of range";
      view->idx[pos] = col_idx_[k];
      view->val[pos] = values_[k];
    }
  }
  BuildRowBlocks(view->chunk_ptr.data(), chunks, 4, &view->block);
  sliced_ = std::move(view);
  return *sliced_;
}

void SparseMatrix::BuildTransposeView() const {
  // The serial scatter (out[col] += w * dense[row]) races under row
  // partitioning, so materialize the transpose's CSC view and gather over
  // its rows instead. The counting sort is stable in the row index, which
  // keeps each output row's accumulation in ascending source-row order —
  // exactly the serial scatter's order — so the product stays bitwise
  // thread-count-invariant.
  const size_t nnz = values_.size();
  t_ptr_.assign(cols_ + 1, 0);
  for (size_t k = 0; k < nnz; ++k) t_ptr_[col_idx_[k] + 1] += 1;
  for (size_t c = 0; c < cols_; ++c) t_ptr_[c + 1] += t_ptr_[c];
  t_idx_.resize(nnz);
  t_val_.resize(nnz);
  // t_ptr_[c] serves as column c's write cursor, ending at column c + 1's
  // start; shifting by one slot then restores the starts.
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const size_t pos = t_ptr_[col_idx_[k]]++;
      t_idx_[pos] = static_cast<uint32_t>(r);
      t_val_[pos] = values_[k];
    }
  }
  for (size_t c = cols_; c > 0; --c) t_ptr_[c] = t_ptr_[c - 1];
  t_ptr_[0] = 0;
  BuildRowBlocks(t_ptr_.data(), cols_, 1, &t_block_row_);
  transpose_built_ = true;
}

void SparseMatrix::GroupedMultiplyInto(const Matrix& b, Matrix* out) const {
  GALE_CHECK_EQ(cols_, b.rows()) << "grouped SpMM shape mismatch";
  GALE_CHECK(out != &b) << "GroupedMultiplyInto aliased output";
  GALE_CHECK(out->rows() >= rows_ && out->cols() == b.cols())
      << "GroupedMultiplyInto output must be pre-shaped";
  const size_t n = b.cols();
  GALE_DCHECK_ALL_FINITE(b.data()) << "grouped SpMM needs a finite B";
  util::ParallelFor(0, num_row_blocks(), 1, [&](size_t b0, size_t b1) {
    GroupedGatherRows(row_ptr_.data(), col_idx_.data(), values_.data(),
                      cols_ - cols_ % 4, b.RowPtr(0), n, out->RowPtr(0),
                      block_row_[b0], block_row_[b1]);
  });
}

void SparseMatrix::GroupedTransposedMultiplyInto(const Matrix& b,
                                                 Matrix* out) const {
  GALE_CHECK_LE(rows_, b.rows()) << "grouped SpMM^T shape mismatch";
  GALE_CHECK(out != &b) << "GroupedTransposedMultiplyInto aliased output";
  const size_t n = b.cols();
  GALE_CHECK(out->rows() == cols_ && out->cols() == n)
      << "GroupedTransposedMultiplyInto accumulator shape mismatch";
  GALE_DCHECK(NoNegativeZero(out->RowPtr(0), cols_ * n))
      << "grouped SpMM^T accumulator holds -0.0";
  GALE_DCHECK(util::check_internal::AllFinite(b.RowPtr(0), rows_ * n))
      << "grouped SpMM^T needs a finite B";
  EnsureTransposeView();
  const size_t num_blocks =
      t_block_row_.empty() ? 0 : t_block_row_.size() - 1;
  util::ParallelFor(0, num_blocks, 1, [&](size_t b0, size_t b1) {
    GroupedGatherColumns(t_ptr_.data(), t_idx_.data(), t_val_.data(), rows_,
                         rows_ - rows_ % 4, b.RowPtr(0), n, out->RowPtr(0),
                         t_block_row_[b0], t_block_row_[b1]);
  });
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = RowBegin(r); k < RowEnd(r); ++k) {
      out.At(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace gale::la
