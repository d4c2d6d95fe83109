#include "nn/gae.h"

#include <cmath>
#include <optional>

#include "la/workspace.h"
#include "nn/losses.h"
#include "util/logging.h"

namespace gale::nn {

Gae::Gae(const la::SparseMatrix* adjacency,
         std::vector<std::pair<size_t, size_t>> edges, size_t in_features,
         const GaeOptions& options)
    : adjacency_(adjacency),
      edges_(std::move(edges)),
      options_(options),
      rng_(options.seed),
      optimizer_(AdamOptions{.learning_rate = options.learning_rate}) {
  GALE_CHECK(adjacency_ != nullptr);
  // The hidden layer folds its relu into the fused SpMM epilogue — no
  // separate activation layer, so no extra whole-matrix input copy.
  encoder_.Add(std::make_unique<GcnLayer>(
      adjacency_, in_features, options_.hidden_dim, rng_,
      GcnLayerOptions{.activation = GcnActivation::kRelu}));
  encoder_.Add(std::make_unique<GcnLayer>(adjacency_, options_.hidden_dim,
                                          options_.embedding_dim, rng_));
}

util::Result<double> Gae::Train(const la::Matrix& features) {
  if (features.rows() != adjacency_->rows()) {
    return util::Status::InvalidArgument(
        "Gae::Train: feature rows must equal node count");
  }
  if (edges_.empty()) {
    return util::Status::FailedPrecondition("Gae::Train: no edges");
  }
  const size_t n = features.rows();
  const size_t num_negatives = static_cast<size_t>(
      std::ceil(options_.negative_ratio * static_cast<double>(edges_.size())));

  // Per-epoch buffers hoisted out of the loop: after the warm-up epoch
  // the optimization step is allocation-free on the la-buffer path (the
  // decoder's pair/target vectors are reserved once up front).
  std::vector<std::pair<size_t, size_t>> pairs;
  std::vector<double> targets;
  std::vector<double> probs;
  std::vector<double> grad_probs;
  pairs.reserve(edges_.size() + num_negatives);
  targets.reserve(edges_.size() + num_negatives);
  probs.reserve(edges_.size() + num_negatives);
  grad_probs.reserve(edges_.size() + num_negatives);
  la::Matrix grad_z;

  double last_loss = 0.0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    std::optional<la::ScopedAllocFreeCheck> alloc_guard;
    if (epoch > 0) alloc_guard.emplace("Gae::Train step");
    const la::Matrix& z = encoder_.Forward(features, /*training=*/true);

    // Sample the reconstruction pairs: all positives + fresh negatives.
    pairs.assign(edges_.begin(), edges_.end());
    targets.assign(edges_.size(), 1.0);
    for (size_t i = 0; i < num_negatives; ++i) {
      size_t u = rng_.UniformInt(n);
      size_t v = rng_.UniformInt(n);
      pairs.emplace_back(u, v);
      targets.push_back(0.0);
    }

    // Decoder forward.
    probs.resize(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      double dot = 0.0;
      const double* zu = z.RowPtr(pairs[i].first);
      const double* zv = z.RowPtr(pairs[i].second);
      for (size_t c = 0; c < z.cols(); ++c) dot += zu[c] * zv[c];
      probs[i] = 1.0 / (1.0 + std::exp(-dot));
    }

    last_loss = BinaryCrossEntropy(probs, targets, &grad_probs);

    // Backprop through sigmoid and the inner product into dL/dZ.
    grad_z.EnsureShape(n, z.cols());
    grad_z.Fill(0.0);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double dsig = probs[i] * (1.0 - probs[i]);
      const double ddot = grad_probs[i] * dsig;
      const size_t u = pairs[i].first;
      const size_t v = pairs[i].second;
      const double* zu = z.RowPtr(u);
      const double* zv = z.RowPtr(v);
      double* gu = grad_z.RowPtr(u);
      double* gv = grad_z.RowPtr(v);
      for (size_t c = 0; c < z.cols(); ++c) {
        gu[c] += ddot * zv[c];
        gv[c] += ddot * zu[c];
      }
    }

    encoder_.ZeroGrad();
    encoder_.BackwardParams(grad_z);
    optimizer_.Step(encoder_.Parameters(), encoder_.Gradients());
  }
  return last_loss;
}

la::Matrix Gae::Encode(const la::Matrix& features) {
  return encoder_.Forward(features, /*training=*/false);
}

double Gae::EdgeProbability(const la::Matrix& embeddings, size_t u,
                            size_t v) const {
  GALE_CHECK_LT(u, embeddings.rows());
  GALE_CHECK_LT(v, embeddings.rows());
  double dot = 0.0;
  const double* zu = embeddings.RowPtr(u);
  const double* zv = embeddings.RowPtr(v);
  for (size_t c = 0; c < embeddings.cols(); ++c) dot += zu[c] * zv[c];
  return 1.0 / (1.0 + std::exp(-dot));
}

}  // namespace gale::nn
