#include "baselines/gcn_classifier.h"

#include <optional>

#include "nn/dropout.h"
#include "nn/gcn_layer.h"
#include "nn/losses.h"
#include "util/logging.h"

namespace gale::baselines {

GcnClassifier::GcnClassifier(const la::SparseMatrix* adjacency,
                             size_t feature_dim, GcnClassifierOptions options)
    : adjacency_(adjacency),
      options_(options),
      rng_(options.seed),
      optimizer_(nn::AdamOptions{.learning_rate = options.learning_rate}) {
  GALE_CHECK(adjacency != nullptr);
  // The hidden layer folds its relu into the fused SpMM epilogue — no
  // separate activation layer between the convolution and the dropout.
  model_.Add(std::make_unique<nn::GcnLayer>(
      adjacency_, feature_dim, options_.hidden_dim, rng_,
      nn::GcnLayerOptions{.activation = nn::GcnActivation::kRelu}));
  model_.Add(std::make_unique<nn::Dropout>(options_.dropout, rng_));
  model_.Add(std::make_unique<nn::GcnLayer>(adjacency_, options_.hidden_dim,
                                            /*out=*/2, rng_));
}

util::Status GcnClassifier::Train(const la::Matrix& features,
                                  const std::vector<int>& labels,
                                  const std::vector<int>& val_labels) {
  if (features.rows() != adjacency_->rows()) {
    return util::Status::InvalidArgument("GcnClassifier: features rows");
  }
  if (labels.size() != features.rows()) {
    return util::Status::InvalidArgument("GcnClassifier: labels size");
  }
  const size_t n = features.rows();
  std::vector<int> class_index(n, 0);
  std::vector<uint8_t> mask(n, 0);
  size_t labeled = 0;
  for (size_t v = 0; v < n; ++v) {
    if (labels[v] == 0 || labels[v] == 1) {
      class_index[v] = labels[v];  // core convention: class 0 = error
      mask[v] = 1;
      ++labeled;
    }
  }
  if (labeled == 0) {
    return util::Status::FailedPrecondition("GcnClassifier: no labels");
  }

  // Labeled rows at full weight plus a weak 'correct' prior on unlabeled
  // rows (errors are rare), which keeps precision from collapsing while
  // the rare error class still registers.
  std::vector<double> row_weights(n, 0.0);
  {
    const std::vector<double> balanced =
        nn::BalancedRowWeights(class_index, mask);
    for (size_t v = 0; v < n; ++v) {
      if (mask[v]) {
        row_weights[v] = balanced.empty() ? 1.0 : balanced[v];
      } else {
        class_index[v] = 1;  // weak 'correct'
        mask[v] = 1;
        row_weights[v] = 0.05;
      }
    }
  }

  double best_val = -1.0;
  int stale = 0;
  const bool has_val = !val_labels.empty();
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    // Epoch 0 warms the layer buffers and the workspace; every later
    // optimization step reuses them without touching the allocator.
    ws_.set_frozen(epoch > 0);
    std::optional<la::ScopedAllocFreeCheck> alloc_guard;
    if (epoch > 0) alloc_guard.emplace("GcnClassifier::Train step");
    const la::Matrix& logits = model_.Forward(features, /*training=*/true);
    nn::SoftmaxCrossEntropy(logits, class_index, mask, &grad_, row_weights,
                            &ws_);
    model_.ZeroGrad();
    model_.BackwardParams(grad_);
    optimizer_.Step(model_.Parameters(), model_.Gradients());
    alloc_guard.reset();

    if (has_val) {
      const double f1 = ValidationF1(features, val_labels);
      if (f1 > best_val + 1e-9) {
        best_val = f1;
        stale = 0;
      } else if (++stale >= options_.early_stop_patience) {
        break;
      }
    }
  }
  return util::Status::Ok();
}

std::vector<double> GcnClassifier::PredictErrorProbability(
    const la::Matrix& features) {
  const la::Matrix& logits = model_.Forward(features, /*training=*/false);
  la::Matrix probs = nn::Softmax(logits);
  std::vector<double> out(features.rows());
  // Core convention: class 0 is 'error'.
  for (size_t v = 0; v < features.rows(); ++v) out[v] = probs.At(v, 0);
  return out;
}

std::vector<uint8_t> GcnClassifier::Predict(const la::Matrix& features) {
  const std::vector<double> p = PredictErrorProbability(features);
  std::vector<uint8_t> out(p.size());
  for (size_t v = 0; v < p.size(); ++v) out[v] = p[v] >= 0.5 ? 1 : 0;
  return out;
}

double GcnClassifier::ValidationF1(const la::Matrix& features,
                                   const std::vector<int>& val_labels) {
  const std::vector<uint8_t> predicted = Predict(features);
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  for (size_t v = 0; v < val_labels.size() && v < predicted.size(); ++v) {
    if (val_labels[v] != 0 && val_labels[v] != 1) continue;
    const bool truth = val_labels[v] == 0;  // core convention: 0 = error
    const bool pred = predicted[v] != 0;
    if (pred && truth) ++tp;
    if (pred && !truth) ++fp;
    if (!pred && truth) ++fn;
  }
  if (tp == 0) return 0.0;
  const double p = static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double r = static_cast<double>(tp) / static_cast<double>(tp + fn);
  return 2.0 * p * r / (p + r);
}

}  // namespace gale::baselines
