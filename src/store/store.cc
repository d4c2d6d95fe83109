#include "store/store.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace gale::store {
namespace {

// Undirected-edge identity: endpoints normalized so (u, v) and (v, u)
// name the same edge.
std::tuple<size_t, size_t, size_t> EdgeKey(size_t u, size_t v,
                                           size_t edge_type) {
  return {std::min(u, v), std::max(u, v), edge_type};
}

util::Status Invalid(size_t index, const std::string& what) {
  return util::Status::InvalidArgument(
      "ApplyBatch: delta " + std::to_string(index) + ": " + what);
}

util::Status Missing(size_t index, const std::string& what) {
  return util::Status::NotFound("ApplyBatch: delta " + std::to_string(index) +
                                ": " + what);
}

// Null is always legal (a missing value); otherwise the stored kind must
// match the declared one.
bool KindMatches(const graph::AttributeDef& def,
                 const graph::AttributeValue& value) {
  return value.is_null() || value.kind == def.kind;
}

// dirty_rows_ flags: the row changed, and its attribute values changed.
constexpr uint8_t kRowDirty = 1;
constexpr uint8_t kValuesDirty = 2;

bool ValidLabel(int label) {
  return label == core::kUnlabeled || label == core::kLabelError ||
         label == core::kLabelCorrect;
}

}  // namespace

util::Status StoreOptions::Validate() const {
  if (max_batch_deltas == 0) {
    return util::Status::InvalidArgument(
        "StoreOptions: max_batch_deltas must be >= 1");
  }
  if (ppr.alpha <= 0.0 || ppr.alpha >= 1.0) {
    return util::Status::InvalidArgument(
        "StoreOptions: ppr.alpha must be in (0, 1)");
  }
  if (!ppr.cache_rows) {
    return util::Status::InvalidArgument(
        "StoreOptions: ppr.cache_rows must stay enabled — the warm row "
        "cache is the incremental-publish mechanism");
  }
  if (encoder.hash_dims == 0) {
    return util::Status::InvalidArgument(
        "StoreOptions: encoder.hash_dims must be >= 1");
  }
  return util::Status::Ok();
}

util::Result<std::unique_ptr<VersionedGraphStore>> VersionedGraphStore::Create(
    graph::AttributedGraph base, std::vector<int> labels,
    StoreOptions options) {
  if (!base.finalized()) {
    return util::Status::FailedPrecondition(
        "VersionedGraphStore::Create: base graph must be finalized");
  }
  if (labels.size() != base.num_nodes()) {
    return util::Status::InvalidArgument(
        "VersionedGraphStore::Create: labels size " +
        std::to_string(labels.size()) + " != num_nodes " +
        std::to_string(base.num_nodes()));
  }
  for (size_t v = 0; v < labels.size(); ++v) {
    if (!ValidLabel(labels[v])) {
      return util::Status::InvalidArgument(
          "VersionedGraphStore::Create: node " + std::to_string(v) +
          " has label " + std::to_string(labels[v]) +
          " outside {unlabeled, error, correct}");
    }
  }
  const util::Status options_ok = options.Validate();
  if (!options_ok.ok()) return options_ok;
  // gale-lint: allow(naked-new): make_unique cannot reach the private ctor
  return std::unique_ptr<VersionedGraphStore>(new VersionedGraphStore(
      std::move(base), std::move(labels), std::move(options)));
}

VersionedGraphStore::VersionedGraphStore(graph::AttributedGraph base,
                                         std::vector<int> labels,
                                         StoreOptions options)
    : graph_(std::move(base)),
      labels_(std::move(labels)),
      options_(std::move(options)),
      encoder_stats_(graph_),
      dirty_rows_(graph_.num_nodes(), 0),
      deltas_applied_(registry_.counter("gale.store.deltas_applied")),
      deltas_rejected_(registry_.counter("gale.store.deltas_rejected")),
      batches_applied_(registry_.counter("gale.store.batches_applied")),
      batches_rejected_(registry_.counter("gale.store.batches_rejected")),
      epochs_published_(registry_.counter("gale.store.epochs_published")),
      rows_invalidated_(registry_.counter("gale.store.rows_invalidated")),
      ppr_rows_refreshed_(registry_.counter("gale.store.ppr_rows_refreshed")),
      ppr_rows_reused_(registry_.counter("gale.store.ppr_rows_reused")),
      full_rebuilds_(registry_.counter("gale.store.full_rebuilds")),
      nodes_replanned_(registry_.counter("gale.store.nodes_replanned")),
      epoch_gauge_(registry_.gauge("gale.store.epoch")),
      published_epoch_gauge_(registry_.gauge("gale.store.published_epoch")),
      num_nodes_gauge_(registry_.gauge("gale.store.num_nodes")),
      num_edges_gauge_(registry_.gauge("gale.store.num_edges")),
      dirty_rows_gauge_(registry_.gauge("gale.store.dirty_rows")) {
  num_nodes_gauge_->Set(static_cast<double>(graph_.num_nodes()));
  num_edges_gauge_->Set(static_cast<double>(graph_.num_edges()));
}

void VersionedGraphStore::MarkDirty(size_t node, bool values) {
  if (!dirty_rows_[node]) ++dirty_count_;
  dirty_rows_[node] |= kRowDirty | (values ? kValuesDirty : 0);
}

util::Status VersionedGraphStore::ApplyBatch(const DeltaBatch& batch) {
  obs::ScopedObs obs_context(&trace_, &registry_);
  obs::Span span("gale.store.apply");
  span.Arg("deltas", static_cast<double>(batch.size()));

  auto reject = [&](util::Status status) {
    batches_rejected_->Increment();
    deltas_rejected_->Increment(batch.size());
    return status;
  };

  if (batch.empty()) {
    return reject(util::Status::InvalidArgument("ApplyBatch: empty batch"));
  }
  if (batch.size() > options_.max_batch_deltas) {
    return reject(util::Status::InvalidArgument(
        "ApplyBatch: " + std::to_string(batch.size()) +
        " deltas exceed max_batch_deltas " +
        std::to_string(options_.max_batch_deltas)));
  }

  // --- validation pass -----------------------------------------------------
  // Simulates the batch against the current state without touching it:
  // node appends extend a pending count/type list, edge adds/removes
  // override the CSR's presence answers. Nothing mutates until every
  // delta has passed, so a failed batch leaves the store byte-identical.
  const size_t base_n = graph_.num_nodes();
  size_t pending_n = base_n;
  std::vector<size_t> new_node_types;
  std::map<std::tuple<size_t, size_t, size_t>, bool> edge_override;
  // effective[i] == 0 marks a validated no-op (UpsertEdge on an existing
  // edge): it applies cleanly but neither mutates nor dirties anything.
  std::vector<uint8_t> effective(batch.size(), 1);
  bool topology_change = false;

  auto node_type_of = [&](size_t node) {
    return node < base_n ? graph_.node_type(node)
                         : new_node_types[node - base_n];
  };
  auto edge_present = [&](size_t u, size_t v, size_t t) {
    const auto it = edge_override.find(EdgeKey(u, v, t));
    if (it != edge_override.end()) return it->second;
    if (u >= base_n || v >= base_n) return false;
    return graph_.HasEdge(u, v, t);
  };

  for (size_t i = 0; i < batch.size(); ++i) {
    const Delta& d = batch[i];
    switch (d.kind) {
      case DeltaKind::kUpsertNode: {
        if (d.node > pending_n) {
          return reject(Missing(
              i, "UpsertNode target " + std::to_string(d.node) +
                     " is neither an existing node nor the append position " +
                     std::to_string(pending_n)));
        }
        const bool append = d.node == pending_n;
        if (append) {
          if (d.node_type >= graph_.num_node_types()) {
            return reject(Invalid(i, "UpsertNode: unknown node type " +
                                         std::to_string(d.node_type)));
          }
        } else if (d.node_type != node_type_of(d.node)) {
          return reject(
              Invalid(i, "UpsertNode: node " + std::to_string(d.node) +
                             " has type " +
                             std::to_string(node_type_of(d.node)) +
                             ", cannot change it to " +
                             std::to_string(d.node_type)));
        }
        const graph::NodeTypeDef& def = graph_.node_type_def(d.node_type);
        if (d.values.size() != def.attributes.size()) {
          return reject(Invalid(
              i, "UpsertNode: " + std::to_string(d.values.size()) +
                     " values for type '" + def.name + "' which declares " +
                     std::to_string(def.attributes.size()) + " attributes"));
        }
        for (size_t j = 0; j < d.values.size(); ++j) {
          if (!KindMatches(def.attributes[j], d.values[j])) {
            return reject(Invalid(i, "UpsertNode: value kind mismatch for "
                                     "attribute '" +
                                         def.attributes[j].name + "'"));
          }
        }
        if (append) {
          new_node_types.push_back(d.node_type);
          ++pending_n;
          topology_change = true;
        }
        break;
      }
      case DeltaKind::kUpsertEdge:
      case DeltaKind::kRemoveEdge: {
        const char* op =
            d.kind == DeltaKind::kUpsertEdge ? "UpsertEdge" : "RemoveEdge";
        if (d.u >= pending_n || d.v >= pending_n) {
          return reject(Missing(
              i, std::string(op) + ": unknown endpoint (" +
                     std::to_string(d.u) + ", " + std::to_string(d.v) + ")"));
        }
        if (d.edge_type >= graph_.num_edge_types()) {
          return reject(Invalid(i, std::string(op) + ": unknown edge type " +
                                       std::to_string(d.edge_type)));
        }
        const bool present = edge_present(d.u, d.v, d.edge_type);
        if (d.kind == DeltaKind::kUpsertEdge) {
          if (present) {
            effective[i] = 0;  // validated no-op
          } else {
            edge_override[EdgeKey(d.u, d.v, d.edge_type)] = true;
            topology_change = true;
          }
        } else {
          if (!present) {
            return reject(Missing(
                i, "RemoveEdge: no (" + std::to_string(d.u) + ", " +
                       std::to_string(d.v) + ") edge of type " +
                       std::to_string(d.edge_type)));
          }
          edge_override[EdgeKey(d.u, d.v, d.edge_type)] = false;
          topology_change = true;
        }
        break;
      }
      case DeltaKind::kSetAttribute: {
        if (d.node >= pending_n) {
          return reject(Missing(i, "SetAttribute: unknown node " +
                                       std::to_string(d.node)));
        }
        const graph::NodeTypeDef& def =
            graph_.node_type_def(node_type_of(d.node));
        if (d.attr >= def.attributes.size()) {
          return reject(Missing(
              i, "SetAttribute: type '" + def.name + "' has no attribute " +
                     std::to_string(d.attr)));
        }
        if (!KindMatches(def.attributes[d.attr], d.value)) {
          return reject(Invalid(i, "SetAttribute: value kind mismatch for "
                                   "attribute '" +
                                       def.attributes[d.attr].name + "'"));
        }
        break;
      }
      case DeltaKind::kSetLabel: {
        if (d.node >= pending_n) {
          return reject(
              Missing(i, "SetLabel: unknown node " + std::to_string(d.node)));
        }
        if (!ValidLabel(d.label)) {
          return reject(Invalid(i, "SetLabel: label " +
                                       std::to_string(d.label) +
                                       " outside {unlabeled, error, correct}"));
        }
        break;
      }
      default:
        return reject(Invalid(i, "unknown delta kind " +
                                     std::to_string(static_cast<uint32_t>(
                                         d.kind))));
    }
  }

  // --- dirty pass ----------------------------------------------------------
  // Runs against the PRE-mutation CSR: an effective edge change dirties
  // both endpoints and their current neighborhoods (the rows whose
  // degree channel / walk row the change perturbs). Must precede the
  // mutation pass — neighbor access dies at Unfreeze().
  dirty_rows_.resize(pending_n, 0);
  auto mark_with_neighbors = [&](size_t node) {
    MarkDirty(node);
    if (node >= base_n) return;  // appended this batch: no prior neighbors
    for (const graph::Neighbor* it = graph_.NeighborsBegin(node);
         it != graph_.NeighborsEnd(node); ++it) {
      MarkDirty(it->node);
    }
  };
  for (size_t i = 0; i < batch.size(); ++i) {
    const Delta& d = batch[i];
    if (!effective[i]) continue;
    switch (d.kind) {
      case DeltaKind::kUpsertNode:
      case DeltaKind::kSetAttribute:
        MarkDirty(d.node, /*values=*/true);
        break;
      case DeltaKind::kSetLabel:
        MarkDirty(d.node);
        break;
      case DeltaKind::kUpsertEdge:
      case DeltaKind::kRemoveEdge:
        mark_with_neighbors(d.u);
        mark_with_neighbors(d.v);
        break;
    }
  }

  // --- mutation pass -------------------------------------------------------
  if (topology_change) graph_.Unfreeze();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Delta& d = batch[i];
    if (!effective[i]) continue;
    switch (d.kind) {
      case DeltaKind::kUpsertNode:
        if (d.node == graph_.num_nodes()) {
          const size_t added = graph_.AddNode(d.node_type, d.values);
          GALE_CHECK_EQ(added, d.node);
          labels_.push_back(core::kUnlabeled);
        } else {
          graph_.ReplaceNodeValues(d.node, d.values);
        }
        break;
      case DeltaKind::kUpsertEdge:
        graph_.AddEdge(d.u, d.v, d.edge_type);
        break;
      case DeltaKind::kRemoveEdge: {
        const bool removed = graph_.RemoveEdge(d.u, d.v, d.edge_type);
        GALE_CHECK(removed) << "validated RemoveEdge found no edge";
        break;
      }
      case DeltaKind::kSetAttribute:
        graph_.set_value(d.node, d.attr, d.value);
        break;
      case DeltaKind::kSetLabel:
        if (labels_[d.node] == core::kLabelError &&
            d.label != core::kLabelError) {
          retired_error_seeds_.push_back(d.node);
        }
        labels_[d.node] = d.label;
        break;
    }
  }
  if (topology_change) {
    graph_.Finalize();
    topology_dirty_ = true;
  }

  epoch_ += 1;
  deltas_applied_->Increment(batch.size());
  batches_applied_->Increment();
  epoch_gauge_->Set(static_cast<double>(epoch_));
  num_nodes_gauge_->Set(static_cast<double>(graph_.num_nodes()));
  num_edges_gauge_->Set(static_cast<double>(graph_.num_edges()));
  dirty_rows_gauge_->Set(static_cast<double>(dirty_count_));
  return util::Status::Ok();
}

util::Status VersionedGraphStore::Replay(
    const std::vector<DeltaBatch>& batches) {
  for (size_t i = 0; i < batches.size(); ++i) {
    const util::Status applied = ApplyBatch(batches[i]);
    if (!applied.ok()) {
      return util::Status(applied.code(),
                          "Replay: batch " + std::to_string(i) + ": " +
                              applied.message());
    }
  }
  return util::Status::Ok();
}

util::Result<PublishedSnapshot> VersionedGraphStore::PublishSnapshot(
    const core::DiscriminatorSnapshot& discriminator) {
  obs::ScopedObs obs_context(&trace_, &registry_);
  obs::Span span("gale.store.publish");
  const size_t n = graph_.num_nodes();
  span.Arg("epoch", static_cast<double>(epoch_));
  span.Arg("dirty_rows", static_cast<double>(dirty_count_));

  // The encoder state is warm: only the nodes whose values changed are
  // replanned, and every row is replayed from its plan (DESIGN.md §12,
  // "Feature encoding without strings").
  la::Matrix features;
  std::vector<size_t> stale;
  {
    obs::Span encode_span("gale.store.publish.encode");
    for (size_t v = 0; v < n; ++v) {
      if (dirty_rows_[v] & kValuesDirty) stale.push_back(v);
    }
    encoder_stats_.Replan(graph_, stale);
    encode_span.Arg("nodes", static_cast<double>(n));
    encode_span.Arg("replanned", static_cast<double>(stale.size()));
    util::Result<la::Matrix> encoded =
        graph::FeatureEncoder(options_.encoder).Encode(graph_, encoder_stats_);
    if (!encoded.ok()) return encoded.status();
    features = std::move(encoded).value();
  }

  const bool full_rebuild = topology_dirty_ || engine_ == nullptr;
  if (full_rebuild) {
    // Renormalization is global: D̃^{-1/2}ÃD̃^{-1/2} changes on every row
    // the topology touches *transitively through degrees*, so the warm
    // rows cannot be patched — the engine restarts cold (the exactness
    // argument of DESIGN.md §14).
    obs::Span walk_span("gale.store.publish.walk");
    engine_.reset();  // drops its pointer into the old walk_ first
    walk_ = la::SparseMatrix::NormalizedAdjacency(n, graph_.EdgePairs());
    engine_ = std::make_unique<prop::PprEngine>(&walk_, options_.ppr);
    full_rebuilds_->Increment();
  } else if (!retired_error_seeds_.empty()) {
    std::sort(retired_error_seeds_.begin(), retired_error_seeds_.end());
    retired_error_seeds_.erase(std::unique(retired_error_seeds_.begin(),
                                           retired_error_seeds_.end()),
                               retired_error_seeds_.end());
    engine_->EvictRows(retired_error_seeds_);
  }

  // Warm influence bake: only the not-yet-cached seeds power-iterate, and
  // serve::BakeErrorInfluence is the same bake FromParts runs, so the
  // vector is bitwise identical to a cold bake of the same graph.
  size_t seeds = 0;
  size_t reused = 0;
  for (size_t v = 0; v < n; ++v) {
    if (labels_[v] != core::kLabelError) continue;
    ++seeds;
    if (engine_->IsCached(v)) ++reused;
  }
  const size_t refreshed = seeds - reused;
  std::vector<double> influence;
  {
    obs::Span ppr_span("gale.store.publish.ppr");
    ppr_span.Arg("seeds", static_cast<double>(seeds));
    ppr_span.Arg("refreshed", static_cast<double>(refreshed));
    influence = serve::BakeErrorInfluence(*engine_, labels_);
  }

  obs::Span assemble_span("gale.store.publish.assemble");
  util::Result<serve::ScoringSnapshot> snap =
      serve::ScoringSnapshot::FromPartsWithInfluence(
          discriminator, std::move(features), walk_, labels_,
          std::move(influence), options_.ppr.alpha);
  if (!snap.ok()) return snap.status();

  const size_t invalidated = dirty_count_;
  published_epoch_ = epoch_;
  epochs_published_->Increment();
  rows_invalidated_->Increment(invalidated);
  ppr_rows_refreshed_->Increment(refreshed);
  ppr_rows_reused_->Increment(reused);
  nodes_replanned_->Increment(stale.size());
  std::fill(dirty_rows_.begin(), dirty_rows_.end(), 0);
  dirty_count_ = 0;
  topology_dirty_ = false;
  retired_error_seeds_.clear();
  published_epoch_gauge_->Set(static_cast<double>(published_epoch_));
  dirty_rows_gauge_->Set(0.0);

  PublishedSnapshot out(epoch_, std::move(snap).value());
  out.ppr_rows_refreshed = refreshed;
  out.ppr_rows_reused = reused;
  out.rows_invalidated = invalidated;
  out.full_rebuild = full_rebuild;
  return out;
}

obs::Report VersionedGraphStore::ObsReport() const {
  return obs::Snapshot(&registry_, &trace_);
}

}  // namespace gale::store
