// gale::store — a versioned mutable graph store feeding gale::serve
// (DESIGN.md §14).
//
// A VersionedGraphStore owns one graph::AttributedGraph plus its example
// labels and advances them by *delta batches* (store/delta_log.h). Each
// ApplyBatch is atomic: the whole batch is validated against the current
// state first — unknown nodes, type-mismatched attribute values, missing
// edges, malformed labels, oversized batches are rejected with the error
// taxonomy (kNotFound / kInvalidArgument) and the store is left
// untouched — then applied and stamped with the next epoch. Epochs are
// dense: epoch e is exactly "the base graph plus the first e batches".
//
// PublishSnapshot() freezes the current epoch into a
// serve::ScoringSnapshot: encodes features, (re)builds the normalized
// adjacency walk, refreshes the warm PPR error-influence rows, and
// assembles the snapshot for the RequestBatcher. Publishing is
// *incremental*:
//
// - The feature encoder's state (graph::EncoderStats: slot counts and
//   moments plus one encode plan per node, with each token's hash and
//   count handle) is planned when the store is created and stays warm
//   from one publish to the next. A batch marks
//   the nodes whose values it changed (SetAttribute, UpsertNode, node
//   appends); the next publish replans only those nodes and replays every
//   row from its plan, without tokenizing or hashing a string. Label and
//   topology deltas replan nothing: degree is read from the CSR at
//   replay. The state owns its keys, so it stays valid after
//   set_value/ReplaceNodeValues free a string it counted. A replayed row
//   is bitwise the row a fresh encode writes (DESIGN.md §12).
// - Between topology changes the store keeps its PprEngine warm, so an
//   attribute- or label-only stream only recomputes the PPR rows of
//   newly error-labeled seeds (retired seeds are evicted via
//   PprEngine::EvictRows). A topology change (node added, edge
//   added/removed) renormalizes the whole walk matrix, so the engine is
//   rebuilt cold — per-seed eviction there would *not* be exact.
//
// Exactness is the contract: an incrementally published snapshot is
// bitwise identical to a from-scratch rebuild of the same end-state
// graph at every GALE_NUM_THREADS (store_publish_test pins both with
// memcmp over serialized bytes).
//
// Observability: gale.store.* spans (apply, publish and its
// encode/walk/ppr/assemble children; encode carries the node count and
// the number of replanned nodes), counters (deltas/batches applied +
// rejected, epochs published, rows invalidated, nodes replanned, PPR
// rows refreshed/reused, full rebuilds) and gauges (epoch, node/edge
// counts, dirty rows) in a per-store registry, deterministic under
// GALE_OBS_LOGICAL_TIME=1.

#ifndef GALE_STORE_STORE_H_
#define GALE_STORE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sgan.h"
#include "graph/attributed_graph.h"
#include "graph/feature_encoder.h"
#include "la/sparse_matrix.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "prop/ppr.h"
#include "serve/snapshot.h"
#include "store/delta_log.h"
#include "util/status.h"

namespace gale::store {

struct StoreOptions {
  // ApplyBatch rejects batches with more deltas than this (a runaway
  // producer should be split upstream, not absorbed as one giant epoch).
  size_t max_batch_deltas = 4096;
  // PPR options for the influence engine. Defaults match what
  // serve::ScoringSnapshot::FromParts bakes with, so store-published and
  // FromParts-built snapshots are byte-comparable. cache_rows must stay
  // true — the warm row cache IS the incremental-publish mechanism.
  prop::PprOptions ppr;
  // Feature encoding applied at every publish.
  graph::FeatureEncoderOptions encoder;

  // kInvalidArgument on max_batch_deltas == 0, alpha outside (0, 1),
  // hash_dims == 0, or cache_rows == false.
  util::Status Validate() const;
};

// One published epoch: the serving snapshot plus publish telemetry. The
// epoch rides OUTSIDE the snapshot on purpose — serialized snapshot bytes
// depend only on graph state, so an incremental publish and a
// from-scratch rebuild of the same state compare memcmp-equal.
struct PublishedSnapshot {
  PublishedSnapshot(uint64_t epoch, serve::ScoringSnapshot snapshot)
      : epoch(epoch), snapshot(std::move(snapshot)) {}

  uint64_t epoch;
  serve::ScoringSnapshot snapshot;
  // PPR error seeds whose rows were power-iterated at this publish vs
  // served warm from the cache.
  size_t ppr_rows_refreshed = 0;
  size_t ppr_rows_reused = 0;
  // Rows dirtied since the previous publish (targets + edge neighbors).
  size_t rows_invalidated = 0;
  // True when this publish renormalized the walk and restarted the PPR
  // engine cold (topology changed, or first publish).
  bool full_rebuild = false;
};

class VersionedGraphStore {
 public:
  // Takes ownership of a *finalized* base graph and its per-node example
  // labels (core conventions; length == num_nodes). kFailedPrecondition
  // on an unfinalized graph, kInvalidArgument on a label-size mismatch or
  // invalid options. unique_ptr because the store owns non-movable obs
  // state (same shape as eval::PrepareDataset).
  static util::Result<std::unique_ptr<VersionedGraphStore>> Create(
      graph::AttributedGraph base, std::vector<int> labels,
      StoreOptions options = {});

  VersionedGraphStore(const VersionedGraphStore&) = delete;
  VersionedGraphStore& operator=(const VersionedGraphStore&) = delete;

  // Validates then applies `batch` atomically; on success the store's
  // epoch advances by one. On any error the graph, labels, epoch, and
  // dirty state are exactly as before the call.
  util::Status ApplyBatch(const DeltaBatch& batch);

  // Applies every batch in order (a loaded delta log); stops at the first
  // failure with its batch index prepended. Epochs advance only for the
  // batches that applied.
  util::Status Replay(const std::vector<DeltaBatch>& batches);

  // Freezes the current epoch into a serving snapshot (see file header).
  // `discriminator` is the trained model to serve — the store versions
  // the graph, not the trainer. Errors propagate from feature encoding
  // and snapshot assembly.
  util::Result<PublishedSnapshot> PublishSnapshot(
      const core::DiscriminatorSnapshot& discriminator);

  // Number of applied batches; 0 is the pristine base graph.
  uint64_t epoch() const { return epoch_; }
  // Epoch of the latest PublishSnapshot (0 before the first publish).
  uint64_t published_epoch() const { return published_epoch_; }

  const graph::AttributedGraph& graph() const { return graph_; }
  const std::vector<int>& labels() const { return labels_; }
  // Rows dirtied since the last publish, and whether any of the dirt was
  // topological (forcing the next publish to rebuild the walk).
  size_t num_dirty_rows() const { return dirty_count_; }
  bool topology_dirty() const { return topology_dirty_; }

  // Snapshot of the store's metrics and span tree.
  obs::Report ObsReport() const;

 private:
  VersionedGraphStore(graph::AttributedGraph base, std::vector<int> labels,
                      StoreOptions options);

  // Marks `node` dirty (idempotent); `values` also marks its encode plan
  // stale (its attribute values changed, or it was appended).
  void MarkDirty(size_t node, bool values = false);

  graph::AttributedGraph graph_;
  std::vector<int> labels_;
  StoreOptions options_;

  // Publish-side state: the walk/engine stay warm across attribute- and
  // label-only epochs; topology_dirty_ forces the next publish to rebuild
  // them (true at construction — the first publish is always cold).
  la::SparseMatrix walk_;
  std::unique_ptr<prop::PprEngine> engine_;
  // The feature encoder's state: every node is planned at construction;
  // each publish replans the nodes whose values changed since the last.
  graph::EncoderStats encoder_stats_;
  // kRowDirty | kValuesDirty flags per node, length num_nodes.
  std::vector<uint8_t> dirty_rows_;
  size_t dirty_count_ = 0;
  bool topology_dirty_ = true;
  // Seeds that lost their error label since the last publish; their warm
  // rows are evicted (memory hygiene — exactness never depended on them).
  std::vector<size_t> retired_error_seeds_;

  uint64_t epoch_ = 0;
  uint64_t published_epoch_ = 0;

  obs::Trace trace_;
  obs::Registry registry_;
  obs::Counter* deltas_applied_;
  obs::Counter* deltas_rejected_;
  obs::Counter* batches_applied_;
  obs::Counter* batches_rejected_;
  obs::Counter* epochs_published_;
  obs::Counter* rows_invalidated_;
  obs::Counter* ppr_rows_refreshed_;
  obs::Counter* ppr_rows_reused_;
  obs::Counter* full_rebuilds_;
  obs::Counter* nodes_replanned_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* published_epoch_gauge_;
  obs::Gauge* num_nodes_gauge_;
  obs::Gauge* num_edges_gauge_;
  obs::Gauge* dirty_rows_gauge_;
};

}  // namespace gale::store

#endif  // GALE_STORE_STORE_H_
