// gale::serve — online node scoring over a frozen run (DESIGN.md §13).
//
// A ScoringSnapshot is an immutable value freeze of everything a completed
// Gale::Run needs to score nodes afterwards: the trained discriminator's
// Dense parameters, the feature matrix X_R the run consumed, the
// normalized-adjacency CSR it walked on, the final example labels, and a
// warm PPR error-influence vector baked at construction (one blocked
// ComputeRows pass over the error-labeled nodes; P is symmetric, so
//   influence[v] = Σ_{u labeled error} P_u[v]
// collapses the whole warm cache into one length-n vector). After
// construction nothing in the snapshot ever mutates, so any number of
// threads may read it concurrently without synchronization — the
// immutability contract the RequestBatcher relies on while its leader
// scores and other callers read the snapshot.
//
// Snapshots persist as a one-record framed file (util/framed_file.h):
// Save replaces its target atomically; Load rejects a truncated or
// bit-flipped file with kDataLoss, another format version with
// kFailedPrecondition, a missing file with kNotFound.
//
// SnapshotScorer runs the discriminator's eval forward over any subset of
// nodes. Every la kernel involved computes each output row from only the
// matching input row with a fixed accumulation order, so a node's scores
// are bitwise identical no matter which batch it rides in, at every
// GALE_NUM_THREADS setting — the keystone of the batcher's determinism
// guarantee (serve_replay_test pins it).

#ifndef GALE_SERVE_SNAPSHOT_H_
#define GALE_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gale.h"
#include "core/sgan.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "nn/sequential.h"
#include "prop/ppr.h"
#include "util/status.h"

namespace gale::serve {

// Per-node scoring output.
struct NodeScore {
  double p_error = 0.0;        // renormalized discriminator P(error | x)
  double p_correct = 0.0;      // 1 - p_error up to renormalization
  double error_influence = 0.0;  // Σ_{u labeled error} P_u[v]
};

class ScoringSnapshot {
 public:
  // Current Save format version.
  static constexpr uint32_t kFormatVersion = 1;

  // Freezes a completed run: `gale` supplies the walk matrix and PPR
  // options, `result` the trained discriminator and final example labels,
  // `x_real` the exact feature matrix the run consumed (GaleResult does
  // not retain it). kInvalidArgument on shape mismatches or an empty
  // discriminator.
  static util::Result<ScoringSnapshot> FromResult(const core::Gale& gale,
                                                  const core::GaleResult& result,
                                                  const la::Matrix& x_real);

  // Assembles a snapshot from raw parts (tests, benches, and external
  // training pipelines). `example_labels` uses the core label
  // conventions; the influence vector is baked here.
  static util::Result<ScoringSnapshot> FromParts(
      core::DiscriminatorSnapshot discriminator, la::Matrix features,
      la::SparseMatrix walk, std::vector<int> example_labels,
      double ppr_alpha = 0.15);

  // Like FromParts, but adopts a caller-computed influence vector (length
  // n) instead of baking one — the incremental-publish path of
  // store::VersionedGraphStore, which maintains the warm PPR rows across
  // delta batches and only refreshes the dirtied seeds. The caller owns
  // the correctness of `error_influence`; every PPR row is bitwise
  // deterministic (ppr_batch_equivalence_test), so a vector summed from
  // warm rows in ascending seed order is memcmp-identical to the one
  // FromParts would bake from scratch.
  static util::Result<ScoringSnapshot> FromPartsWithInfluence(
      core::DiscriminatorSnapshot discriminator, la::Matrix features,
      la::SparseMatrix walk, std::vector<int> example_labels,
      std::vector<double> error_influence, double ppr_alpha = 0.15);

  // Writes `path + ".tmp"` and renames it over `path`: a failed Save
  // leaves the previous file intact (util::WriteFileAtomically's codes).
  util::Status Save(const std::string& path) const;
  // kNotFound (no file), kDataLoss (truncated / corrupt / checksum
  // mismatch), kFailedPrecondition (format version other than this one).
  static util::Result<ScoringSnapshot> Load(const std::string& path);

  size_t num_nodes() const { return features_.rows(); }
  size_t feature_dim() const { return features_.cols(); }
  const la::Matrix& features() const { return features_; }
  const la::SparseMatrix& walk() const { return walk_; }
  const core::DiscriminatorSnapshot& discriminator() const {
    return discriminator_;
  }
  const std::vector<int>& example_labels() const { return example_labels_; }
  const std::vector<double>& error_influence() const {
    return error_influence_;
  }
  double ppr_alpha() const { return ppr_alpha_; }

 private:
  ScoringSnapshot() = default;

  // Shape checks shared by both factories; then bakes error_influence_.
  util::Result<void> FinishBuild(bool bake_influence);

  core::DiscriminatorSnapshot discriminator_;
  la::Matrix features_;            // n x d, the run's X_R
  la::SparseMatrix walk_;          // n x n normalized adjacency
  std::vector<int> example_labels_;  // final V_T labels (core conventions)
  std::vector<double> error_influence_;  // length n
  double ppr_alpha_ = 0.15;
};

// The PPR error-influence vector, influence[v] = Σ_{u labeled error}
// P_u[v] (length labels.size(), which must equal the engine's node
// count). One ComputeRows over the error-labeled nodes power-iterates only
// the rows `engine` has not cached; the rows are then summed in ascending
// seed order. Every PPR row is bitwise deterministic, so the vector is
// the same bits whether its rows were warm or cold. The one bake behind
// FromParts/FromResult and the store's incremental publish.
std::vector<double> BakeErrorInfluence(prop::PprEngine& engine,
                                       const std::vector<int>& labels);

// Allocation-free fused forward over a snapshot. Owns persistent batch
// buffers warmed at construction for batches up to `max_batch` rows;
// after that, ScoreInto never touches the heap (serve_snapshot_test pins
// it with la::BufferAllocations). NOT thread-safe — one thread drives a
// scorer at a time (the RequestBatcher's single scorer passes from one
// batch leader to the next under its mutex); the snapshot behind it may
// be shared freely.
class SnapshotScorer {
 public:
  // `snapshot` must outlive the scorer. `max_batch` >= 1.
  SnapshotScorer(const ScoringSnapshot* snapshot, size_t max_batch);

  // Scores nodes[i] into out[i] (out must hold nodes.size() entries, all
  // ids < num_nodes(), nodes.size() <= max_batch). Each node's scores are
  // bitwise identical to what any other batch containing it produces, and
  // to Sgan::PredictProbabilities' row for it.
  void ScoreInto(const std::vector<size_t>& nodes, NodeScore* out);

  size_t max_batch() const { return max_batch_; }

 private:
  const ScoringSnapshot* snapshot_;
  size_t max_batch_;
  // Dense/LeakyRelu mirror of the discriminator's eval forward (dropout
  // is identity in eval and is omitted; bitwise equal — see sgan.h).
  nn::Sequential forward_;
  la::Matrix input_;  // gathered feature rows, max_batch x d capacity
};

}  // namespace gale::serve

#endif  // GALE_SERVE_SNAPSHOT_H_
