// Personalized PageRank rows of the matrix
//   P = alpha * (I - (1 - alpha) * S)^{-1}
// with S the symmetric renormalized adjacency (Section V-A of the paper:
// "P_v is the Personalized PageRank probability vector for node v").
//
// Rows are computed by power iteration
//   p <- alpha * e_v + (1 - alpha) * S p
// and cached: the paper's Section VII observes that "P remains static once
// computed" and memoizes it. The cache can be disabled to reproduce the
// U_GALE ablation.
//
// There is one power-iteration loop, and it is blocked: a batch of up to
// 64 seeds is packed into an n x count state matrix P, stored at stride
// count inside fixed n x 64 workspace buffers, and iterated
//   P <- alpha * E + (1 - alpha) * S * P
// as one strided SpMM per sweep — a single CSR traversal per iteration for
// the whole batch instead of one per seed — with per-seed convergence
// masking (converged columns retire and the surviving columns compact
// left, dropping out of both the SpMM and the damp pass). Every column
// runs its own seed's value sequence, so a row's bits do not depend on
// which seeds share its batch, nor on the thread count or ISA.
//
// A row computed alone (a Row(v) miss, or a batch down to one live
// column, which is every incremental store publish) is a width-1 product
// per sweep. From AVX2 up it runs over the walk's sliced view, four rows per
// vector accumulator (la/sparse_matrix.h), built by the first such sweep
// and kept with the walk; each element keeps the CSR gather's bits.

#ifndef GALE_PROP_PPR_H_
#define GALE_PROP_PPR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "la/sparse_matrix.h"
#include "la/workspace.h"
#include "util/status.h"

namespace gale::prop {

struct PprOptions {
  // Stopping rule: at most max_iterations sweeps; a row stops early once
  // its L1 change over one sweep drops below tolerance.
  int max_iterations = 60;
  double tolerance = 1e-8;
  // Restart probability alpha.
  double alpha = 0.15;
  bool cache_rows = true;
};

class PprEngine {
 public:
  // `walk_matrix` must outlive the engine; it should be the symmetric
  // normalized adjacency D̃^{-1/2}ÃD̃^{-1/2} of the graph.
  PprEngine(const la::SparseMatrix* walk_matrix, PprOptions options = {});

  // Row v of P (length n, sums to ~1). Cached when caching is enabled.
  // Cached references stay valid until an EvictRows() naming the seed.
  // With caching disabled the reference is to one reused buffer and stays
  // valid until the next Row() call. A cache miss (or any call with
  // caching disabled) is a one-seed batch on the calling thread and must
  // not happen inside a parallel region — prefetch via ComputeRows first.
  const std::vector<double>& Row(size_t v);

  // Batch prefetch: computes the not-yet-cached rows of `seeds` with the
  // blocked power iteration (see file header) and inserts them into the
  // cache in seed order. After the call, Row(v) is a pure cache hit for
  // every seed, so callers may read those rows concurrently.
  //
  // No-op when caching is disabled (the U_GALE ablation recomputes rows on
  // demand by design, and the single reused row cannot hold a batch).
  void ComputeRows(std::span<const size_t> seeds);

  bool cache_enabled() const { return options_.cache_rows; }
  // O(1) flat-cache membership test; callable from worker threads during
  // a parallel scan (reads the slot table only, which ComputeRows never
  // mutates concurrently with readers).
  bool IsCached(size_t v) const { return cache_slot_[v] != kNoSlot; }
  size_t num_cached_rows() const {
    return cached_rows_.size() - free_slots_.size();
  }
  size_t num_computed_rows() const { return computed_rows_; }
  // Targeted eviction (the store's incremental-invalidation hook): drops
  // exactly the cached rows of `seeds` (uncached seeds are skipped) and
  // recycles their slots for later inserts (LIFO, so slot assignment
  // stays deterministic). References previously returned by Row() for an
  // evicted seed are invalidated; num_computed_rows() is NOT reset — an
  // eviction is cache churn within one generation, not a cold restart.
  void EvictRows(std::span<const size_t> seeds);

  double alpha() const { return options_.alpha; }
  size_t num_nodes() const { return walk_matrix_->rows(); }

 private:
  // Flat-cache slot sentinel: node has no cached row.
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  // Blocked power iteration over `count` seeds (1 <= count <= 64); leaves
  // seeds[j]'s row in batch_rows_[j]. Those vectors keep their capacity
  // across calls until a caller moves them out.
  void ComputeBatch(const size_t* seeds, size_t count);
  void InsertRow(size_t v, std::vector<double> row);

  const la::SparseMatrix* walk_matrix_;
  PprOptions options_;
  // Deterministic flat cache: cache_slot_[v] indexes cached_rows_, or
  // kNoSlot. A deque keeps cached-row references stable across
  // insertions (Row hands out long-lived const references). Evicted
  // slots park on free_slots_ and are recycled before the deque grows.
  std::vector<uint32_t> cache_slot_;
  std::deque<std::vector<double>> cached_rows_;
  std::vector<uint32_t> free_slots_;
  // Epoch-stamped dedup table for ComputeRows (no per-call hash set).
  std::vector<uint64_t> seen_stamp_;
  uint64_t seen_epoch_ = 0;
  std::vector<size_t> missing_;  // reused across ComputeRows calls
  la::Workspace batch_ws_;       // n x 64 ping-pong buffers
  // Per-batch bookkeeping, reused across batches (steady state:
  // allocation-free).
  std::vector<size_t> col_seed_;   // seed node of each active column
  std::vector<size_t> col_block_;  // original block position of each column
  std::vector<double> col_diff_;   // this sweep's L1 diff per column
  std::vector<uint32_t> survivors_;
  // The extracted rows of the last batch. With caching off, Row() returns
  // batch_rows_[0] itself, so recomputation reuses its capacity.
  std::vector<std::vector<double>> batch_rows_;
  size_t computed_rows_ = 0;  // total power iterations run (telemetry)
};

}  // namespace gale::prop

#endif  // GALE_PROP_PPR_H_
