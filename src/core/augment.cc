#include "core/augment.h"

#include "graph/feature_encoder.h"
#include "graph/error_injector.h"
#include "la/sparse_matrix.h"
#include "util/logging.h"

namespace gale::core {

util::Result<void> AugmentOptions::Validate() const {
  if (synthetic_node_rate <= 0.0 || synthetic_node_rate > 1.0) {
    return util::Status::InvalidArgument(
        "AugmentOptions: synthetic_node_rate must be in (0, 1]");
  }
  if (synthetic_mix.empty()) {
    return util::Status::InvalidArgument(
        "AugmentOptions: synthetic_mix must not be empty");
  }
  double mix_sum = 0.0;
  for (double m : synthetic_mix) {
    if (m < 0.0) {
      return util::Status::InvalidArgument(
          "AugmentOptions: synthetic_mix entries must be >= 0");
    }
    mix_sum += m;
  }
  if (mix_sum <= 0.0) {
    return util::Status::InvalidArgument(
        "AugmentOptions: synthetic_mix must have positive mass");
  }
  return {};
}

util::Result<AugmentResult> GAugment(
    const graph::AttributedGraph& g,
    const std::vector<graph::Constraint>& constraints,
    const AugmentOptions& options) {
  {
    const util::Result<void> valid = options.Validate();
    if (!valid.ok()) return valid.status();
  }
  if (!g.finalized()) {
    return util::Status::FailedPrecondition("GAugment: graph not finalized");
  }

  // --- attribute-level features of the real graph ---
  graph::FeatureEncoder encoder(options.encoder);
  util::Result<la::Matrix> attr_features = encoder.Encode(g);
  if (!attr_features.ok()) return attr_features.status();
  const la::Matrix& x_attr = attr_features.value();

  // Neighborhood context: the mean of the neighbors' attribute features
  // (row-normalized adjacency, no self loop). A context-dependent error —
  // e.g. a plausible value swapped in from another community — is visible
  // only as a mismatch between a node's own block and this block.
  la::SparseMatrix mean_operator;
  {
    std::vector<la::Triplet> triplets;
    for (const auto& [u, v] : g.EdgePairs()) {
      if (u == v) continue;
      triplets.push_back({u, v, 1.0 / static_cast<double>(g.degree(u))});
      triplets.push_back({v, u, 1.0 / static_cast<double>(g.degree(v))});
    }
    mean_operator =
        la::SparseMatrix::FromTriplets(g.num_nodes(), g.num_nodes(),
                                       std::move(triplets));
  }
  const la::Matrix neighbor_mean = mean_operator.Multiply(x_attr);

  // --- structural embeddings via GAE ---
  la::Matrix x_struct;
  if (options.use_gae) {
    const std::vector<std::pair<size_t, size_t>> edges = g.EdgePairs();
    if (edges.empty()) {
      return util::Status::FailedPrecondition("GAugment: graph has no edges");
    }
    la::SparseMatrix adjacency =
        la::SparseMatrix::NormalizedAdjacency(g.num_nodes(), edges);
    nn::GaeOptions gae_options = options.gae;
    gae_options.seed = options.seed;
    nn::Gae gae(&adjacency, edges, x_attr.cols(), gae_options);
    util::Result<double> loss = gae.Train(x_attr);
    if (!loss.ok()) return loss.status();
    x_struct = gae.Encode(x_attr);
  }

  // Row layout: [own attributes | own - neighbor mean | GAE]. The
  // context blocks always come from the *original* graph — errors are
  // node-local, so a synthetic row pairs polluted own attributes with its
  // node's true context. Encoding the context as a difference makes a
  // context-inconsistent value (a plausible swap from another community)
  // linearly visible instead of requiring the classifier to learn the
  // comparison.
  const size_t attr_dims = x_attr.cols();
  const size_t context_dims =
      options.include_neighbor_context ? attr_dims : 0;
  const size_t struct_dims = options.use_gae ? x_struct.cols() : 0;
  auto make_row = [&](const double* own_attr, size_t node, double* out) {
    std::copy(own_attr, own_attr + attr_dims, out);
    if (options.include_neighbor_context) {
      const double* mean = neighbor_mean.RowPtr(node);
      for (size_t c = 0; c < attr_dims; ++c) {
        out[attr_dims + c] = own_attr[c] - mean[c];
      }
    }
    if (options.use_gae) {
      std::copy(x_struct.RowPtr(node), x_struct.RowPtr(node) + struct_dims,
                out + attr_dims + context_dims);
    }
  };

  AugmentResult result;
  result.x_real =
      la::Matrix(g.num_nodes(), attr_dims + context_dims + struct_dims);
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    make_row(x_attr.RowPtr(v), v, result.x_real.RowPtr(v));
  }

  // --- synthetic erroneous counterpart ---
  // Pollute a clone with the library-guided injector; every synthetic
  // error is detectable by construction (they come *from* the rules).
  graph::AttributedGraph dirty = g.Clone();
  graph::ErrorInjectorConfig inject;
  inject.node_error_rate = options.synthetic_node_rate;
  inject.detectable_rate = 1.0;
  inject.type_mix = options.synthetic_mix;
  inject.seed = options.seed ^ 0x5337;
  util::Result<graph::ErrorGroundTruth> injected =
      graph::ErrorInjector(inject).Inject(dirty, constraints);
  if (!injected.ok()) return injected.status();

  // Re-encode the polluted nodes against the clean statistics so their
  // rows live in the same space as X_R.
  const graph::EncoderStats clean_stats(g);
  const size_t raw_dims = encoder.RawDims(g);
  std::vector<size_t> polluted;
  for (size_t v = 0; v < g.num_nodes(); ++v) {
    if (injected.value().is_error[v]) polluted.push_back(v);
  }
  if (polluted.empty()) {
    return util::Status::Internal(
        "GAugment: synthetic injection produced no polluted nodes; "
        "increase synthetic_node_rate");
  }
  if (options.encoder.pca_dims != 0 &&
      options.encoder.pca_dims < options.encoder.hash_dims) {
    return util::Status::Unimplemented(
        "GAugment: PCA-compressed encoders are not supported for the "
        "synthetic path; set encoder.pca_dims = 0");
  }

  GALE_CHECK_EQ(raw_dims, attr_dims);
  std::vector<double> dirty_row(raw_dims);
  result.x_synthetic =
      la::Matrix(polluted.size(), attr_dims + context_dims + struct_dims);
  for (size_t i = 0; i < polluted.size(); ++i) {
    encoder.EncodeNode(dirty, clean_stats, polluted[i], dirty_row.data(),
                       raw_dims);
    make_row(dirty_row.data(), polluted[i], result.x_synthetic.RowPtr(i));
  }
  result.synthetic_nodes = std::move(polluted);
  return result;
}

}  // namespace gale::core
