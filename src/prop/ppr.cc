#include "prop/ppr.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gale::prop {

namespace {

// Seeds per blocked power-iteration batch. A batch shares one CSR
// traversal per sweep among its seeds (the gather vectorizes across them)
// at 2 x n x kBatchSeeds doubles of workspace. Every column runs its own
// seed's scalar sequence, so the rows do not depend on this width.
constexpr size_t kBatchSeeds = 64;

// Rows per compaction shard: column compaction is a cheap permutation, so
// shards need a few hundred rows to amortize dispatch.
constexpr size_t kCompactRowGrain = 256;

// One power-iteration epilogue over all n rows of the batch state:
// damp the fresh product by (1 - alpha), add the teleport mass at each
// column's seed row, and accumulate each column's L1 diff against the
// previous state. Deliberately serial over rows: each column's diff is
// one running accumulator summed in ascending row order, and that
// summation order defines convergence, so it must not be sharded. Per
// element the value sequence is the formula's: damp multiply, teleport
// add at the seed row, |next - prev|. The damp is one independent
// multiply per element, the same value in every SIMD tier, so the pass is
// plain scalar code with no per-row dispatch. Width 1 keeps its diff in a
// register: the general loop's diffs[j] goes through memory on every row,
// which measured ~1 ms slower per single-seed solve (DESIGN.md §12).
// noinline for the usual shard-kernel reason (and to keep the hot loop's
// bounds in registers).
__attribute__((noinline)) void DampTeleportDiffRows(
    double* next, const double* prev, size_t stride, size_t width,
    const size_t* col_seed, double damp, double alpha, double* diffs,
    size_t n) {
  if (width == 1) {
    const size_t seed = col_seed[0];
    double diff = diffs[0];
    for (size_t i = 0; i < n; ++i) {
      double v = next[i * stride] * damp;
      if (i == seed) v += alpha;
      next[i * stride] = v;
      diff += std::abs(v - prev[i * stride]);
    }
    diffs[0] = diff;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    double* nrow = next + i * stride;
    const double* prow = prev + i * stride;
    for (size_t j = 0; j < width; ++j) {
      double v = nrow[j] * damp;
      if (col_seed[j] == i) v += alpha;
      nrow[j] = v;
      diffs[j] += std::abs(v - prow[j]);
    }
  }
}

// Left-packs the surviving columns of rows [r0, r1): row[s] =
// row[survivors[s]]. In-place safe because survivors is ascending and
// survivors[s] >= s. A pure permutation — no arithmetic — so sharding
// over rows cannot affect values.
__attribute__((noinline)) void CompactColumnsRows(double* p, size_t stride,
                                                  const uint32_t* survivors,
                                                  size_t num_survivors,
                                                  size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    double* row = p + r * stride;
    for (size_t s = 0; s < num_survivors; ++s) row[s] = row[survivors[s]];
  }
}

}  // namespace

PprEngine::PprEngine(const la::SparseMatrix* walk_matrix, PprOptions options)
    : walk_matrix_(walk_matrix), options_(options) {
  GALE_CHECK(walk_matrix != nullptr);
  GALE_CHECK_EQ(walk_matrix->rows(), walk_matrix->cols());
  GALE_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  GALE_CHECK(walk_matrix->rows() < kNoSlot)
      << "graph too large for the 32-bit flat-cache slot table";
  cache_slot_.assign(walk_matrix->rows(), kNoSlot);
  seen_stamp_.assign(walk_matrix->rows(), 0);
}

void PprEngine::EvictRows(std::span<const size_t> seeds) {
  for (size_t v : seeds) {
    GALE_CHECK_LT(v, walk_matrix_->rows());
    const uint32_t slot = cache_slot_[v];
    if (slot == kNoSlot) continue;
    cache_slot_[v] = kNoSlot;
    // Release the row's memory now; the slot itself is recycled by the
    // next insert (LIFO pop, so the assignment order is deterministic).
    std::vector<double>().swap(cached_rows_[slot]);
    free_slots_.push_back(slot);
  }
}

void PprEngine::InsertRow(size_t v, std::vector<double> row) {
  GALE_DCHECK_EQ(cache_slot_[v], kNoSlot);
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    cache_slot_[v] = slot;
    cached_rows_[slot] = std::move(row);
    return;
  }
  cache_slot_[v] = static_cast<uint32_t>(cached_rows_.size());
  cached_rows_.push_back(std::move(row));
}

void PprEngine::ComputeBatch(const size_t* seeds, size_t count) {
  const size_t n = walk_matrix_->rows();
  GALE_DCHECK(count >= 1 && count <= kBatchSeeds);

  // Two fixed-shape n x kBatchSeeds ping-pong buffers, so the workspace
  // only ever sees one shape and steady-state batches are allocation-free
  // on the la-buffer path. The state inside them is laid out at stride
  // `count`: a narrow batch sweeps a dense n x count block, not `count`
  // columns strewn across kBatchSeeds-wide rows.
  la::Workspace::Scoped p_buf = batch_ws_.Checkout(n, kBatchSeeds);
  la::Workspace::Scoped next_buf = batch_ws_.Checkout(n, kBatchSeeds);
  const size_t stride = count;
  double* p = p_buf.mat().RowPtr(0);
  double* next = next_buf.mat().RowPtr(0);

  // Active-column bookkeeping. Column j of the state matrix currently
  // iterates seed col_seed_[j]; col_block_[j] remembers its position in
  // the original block so retired rows land in seed order.
  col_seed_.assign(seeds, seeds + count);
  col_block_.resize(count);
  for (size_t j = 0; j < count; ++j) col_block_[j] = j;
  // No clear(): a kept row keeps its capacity for the next extraction.
  batch_rows_.resize(count);

  // P = E restricted to the live columns: each column starts as e_seed.
  std::fill(p, p + n * stride, 0.0);
  for (size_t j = 0; j < count; ++j) p[seeds[j] * stride + j] = 1.0;

  size_t active = count;
  for (int iter = 0; iter < options_.max_iterations && active > 0; ++iter) {
    // One CSR traversal updates every live column: next = S * P.
    walk_matrix_->MultiplyStridedInto(p, active, stride, next);
    col_diff_.assign(active, 0.0);
    DampTeleportDiffRows(next, p, stride, active, col_seed_.data(),
                         1.0 - options_.alpha, options_.alpha,
                         col_diff_.data(), n);
    std::swap(p, next);

    // Convergence masking, break-after-swap: a column retires holding the
    // state of the sweep whose diff dropped below tolerance, or
    // unconditionally after the final sweep.
    const bool last_sweep = iter == options_.max_iterations - 1;
    survivors_.clear();
    for (size_t j = 0; j < active; ++j) {
      if (col_diff_[j] < options_.tolerance || last_sweep) {
        std::vector<double>& row = batch_rows_[col_block_[j]];
        row.resize(n);
        for (size_t i = 0; i < n; ++i) row[i] = p[i * stride + j];
        GALE_DCHECK(util::check_internal::AllFinite(row))
            << "non-finite PPR row";
        GALE_DCHECK(util::check_internal::AllNonNegative(row))
            << "negative PPR mass, source " << col_seed_[j];
        GALE_DCHECK_GE(row[col_seed_[j]], options_.alpha - 1e-12);
      } else {
        survivors_.push_back(static_cast<uint32_t>(j));
      }
    }
    if (survivors_.size() != active) {
      // Left-pack the surviving columns so they stay dense in the SpMM
      // and damp sweeps; converged columns drop out of all further work.
      const uint32_t* surv = survivors_.data();
      const size_t num_surv = survivors_.size();
      if (num_surv > 0) {
        util::ParallelFor(0, n, kCompactRowGrain, [&](size_t r0, size_t r1) {
          CompactColumnsRows(p, stride, surv, num_surv, r0, r1);
        });
      }
      for (size_t s = 0; s < num_surv; ++s) {
        col_seed_[s] = col_seed_[surv[s]];
        col_block_[s] = col_block_[surv[s]];
      }
      active = num_surv;
    }
  }
  // max_iterations <= 0: the loop never ran and every column still holds
  // its initial e_seed state — extract it as-is.
  for (size_t j = 0; j < active; ++j) {
    std::vector<double>& row = batch_rows_[col_block_[j]];
    row.resize(n);
    for (size_t i = 0; i < n; ++i) row[i] = p[i * stride + j];
  }
  computed_rows_ += count;
}

void PprEngine::ComputeRows(std::span<const size_t> seeds) {
  if (!options_.cache_rows) return;
  // Epoch-stamped dedup: O(1) per seed, no per-call hash set.
  ++seen_epoch_;
  missing_.clear();
  for (size_t v : seeds) {
    GALE_CHECK_LT(v, walk_matrix_->rows());
    if (cache_slot_[v] == kNoSlot && seen_stamp_[v] != seen_epoch_) {
      seen_stamp_[v] = seen_epoch_;
      missing_.push_back(v);
    }
  }
  if (missing_.empty()) return;

  obs::Span span("gale.prop.ppr.batch");
  span.Arg("rows", static_cast<double>(missing_.size()));

  for (size_t off = 0; off < missing_.size(); off += kBatchSeeds) {
    const size_t count = std::min(kBatchSeeds, missing_.size() - off);
    ComputeBatch(missing_.data() + off, count);
    for (size_t j = 0; j < count; ++j) {
      InsertRow(missing_[off + j], std::move(batch_rows_[j]));
    }
  }
}

const std::vector<double>& PprEngine::Row(size_t v) {
  GALE_CHECK_LT(v, walk_matrix_->rows());
  if (options_.cache_rows) {
    const uint32_t slot = cache_slot_[v];
    if (slot != kNoSlot) return cached_rows_[slot];
    // Misses compute on the calling thread and mutate the cache; inside a
    // parallel region that races with other readers. Prefetch the rows a
    // parallel scan needs with ComputeRows first.
    GALE_DCHECK(!util::InParallelRegion())
        << "PPR cache miss for node " << v
        << " inside a parallel region; prefetch with ComputeRows";
    ComputeBatch(&v, 1);
    InsertRow(v, std::move(batch_rows_[0]));
    return cached_rows_[cache_slot_[v]];
  }
  GALE_DCHECK(!util::InParallelRegion())
      << "uncached PPR compute for node " << v
      << " inside a parallel region (single reused row, not thread-safe)";
  ComputeBatch(&v, 1);
  return batch_rows_[0];
}

}  // namespace gale::prop
