#include "core/sgan.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/losses.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gale::core {

namespace {

// Rows [h, a.rows() + b.rows()) of [a; b], then c, into `*out` (reshaped
// via EnsureShape; every row is assigned, so no zero-fill): the part of
// the batch [a; b; c] past its first h rows.
void StackTailInto(const la::Matrix& a, const la::Matrix& b,
                   const la::Matrix& c, size_t h, la::Matrix* out) {
  GALE_CHECK_EQ(a.cols(), b.cols());
  GALE_CHECK_EQ(a.cols(), c.cols());
  const size_t ab = a.rows() + b.rows();
  GALE_CHECK_LE(h, ab);
  out->EnsureShape(ab - h + c.rows(), a.cols());
  size_t r = 0;
  const auto copy_row = [&](const double* src) {
    std::copy(src, src + a.cols(), out->RowPtr(r++));
  };
  for (size_t i = h; i < ab; ++i) {
    copy_row(i < a.rows() ? a.RowPtr(i) : b.RowPtr(i - a.rows()));
  }
  for (size_t i = 0; i < c.rows(); ++i) copy_row(c.RowPtr(i));
}

// P(error), P(correct) per row: D's first two logits renormalized.
la::Matrix ProbabilitiesFromLogits(const la::Matrix& logits) {
  la::Matrix probs(logits.rows(), 2);
  for (size_t r = 0; r < logits.rows(); ++r) {
    ErrorCorrectProbabilities(logits.RowPtr(r), &probs.At(r, 0),
                              &probs.At(r, 1));
    // D's conditional output P(error|x), P(correct|x) must lie on the
    // probability simplex; the 3-way softmax inside the losses carries the
    // same contract (see nn::Softmax).
    GALE_DCHECK(util::check_internal::OnSimplex(probs.RowPtr(r), 2u))
        << "discriminator output off the simplex, row " << r;
  }
  return probs;
}

}  // namespace

void ErrorCorrectProbabilities(const double* logits, double* p_error,
                               double* p_correct) {
  const double m = std::max(logits[kLabelError], logits[kLabelCorrect]);
  const double pe = std::exp(logits[kLabelError] - m);
  const double pc = std::exp(logits[kLabelCorrect] - m);
  *p_error = pe / (pe + pc);
  *p_correct = pc / (pe + pc);
}

std::vector<int> LabelsFromProbabilities(const la::Matrix& probabilities) {
  std::vector<int> out(probabilities.rows());
  for (size_t r = 0; r < probabilities.rows(); ++r) {
    out[r] = probabilities.At(r, 0) >= probabilities.At(r, 1) ? kLabelError
                                                               : kLabelCorrect;
  }
  return out;
}

util::Result<void> SganConfig::Validate() const {
  if (hidden_dim == 0) {
    return util::Status::InvalidArgument("SganConfig: hidden_dim must be > 0");
  }
  if (embedding_dim == 0) {
    return util::Status::InvalidArgument(
        "SganConfig: embedding_dim must be > 0");
  }
  if (dropout < 0.0 || dropout >= 1.0) {
    return util::Status::InvalidArgument(
        "SganConfig: dropout must be in [0, 1)");
  }
  if (learning_rate <= 0.0) {
    return util::Status::InvalidArgument(
        "SganConfig: learning_rate must be > 0");
  }
  if (lr_decay <= 0.0 || lr_decay > 1.0) {
    return util::Status::InvalidArgument(
        "SganConfig: lr_decay must be in (0, 1]");
  }
  if (lambda_unsupervised < 0.0) {
    return util::Status::InvalidArgument(
        "SganConfig: lambda_unsupervised must be >= 0");
  }
  if (synthetic_example_weight < 0.0) {
    return util::Status::InvalidArgument(
        "SganConfig: synthetic_example_weight must be >= 0");
  }
  if (unlabeled_correct_weight < 0.0) {
    return util::Status::InvalidArgument(
        "SganConfig: unlabeled_correct_weight must be >= 0");
  }
  if (generator_noise < 0.0) {
    return util::Status::InvalidArgument(
        "SganConfig: generator_noise must be >= 0");
  }
  if (train_epochs <= 0) {
    return util::Status::InvalidArgument(
        "SganConfig: train_epochs must be > 0");
  }
  if (update_epochs <= 0) {
    return util::Status::InvalidArgument(
        "SganConfig: update_epochs must be > 0");
  }
  if (early_stop_patience < 0) {
    return util::Status::InvalidArgument(
        "SganConfig: early_stop_patience must be >= 0");
  }
  return {};
}

Sgan::Sgan(size_t feature_dim, const SganConfig& config)
    : feature_dim_(feature_dim),
      config_(config),
      rng_(config.seed),
      d_optimizer_(nn::AdamOptions{.learning_rate = config.learning_rate,
                                   .lr_decay = config.lr_decay}),
      g_optimizer_(nn::AdamOptions{.learning_rate = config.learning_rate,
                                   .lr_decay = config.lr_decay}) {
  GALE_CHECK_GT(feature_dim, 0u);
  const util::Result<void> valid = config_.Validate();
  GALE_CHECK(valid.ok()) << valid.status();
  // Discriminator: Dense -> LeakyReLU+Dropout (one fused layer) -> Dense
  // -> LeakyReLU (penultimate embedding H_n) -> Dense(3 logits).
  discriminator_.Add(
      std::make_unique<nn::Dense>(feature_dim, config_.hidden_dim, rng_));
  discriminator_.Add(std::make_unique<nn::LeakyReluDropout>(
      kSganLeakySlope, config_.dropout, rng_));
  discriminator_.Add(std::make_unique<nn::Dense>(config_.hidden_dim,
                                                 config_.embedding_dim, rng_));
  discriminator_.Add(std::make_unique<nn::LeakyRelu>(kSganLeakySlope));
  embed_layer_index_ = discriminator_.num_layers() - 1;
  discriminator_.Add(
      std::make_unique<nn::Dense>(config_.embedding_dim, 3, rng_));

  // Generator: Dense -> BatchNorm -> LeakyReLU -> Dense back to feature
  // space (the paper's Dense+BatchNorm stack).
  generator_.Add(
      std::make_unique<nn::Dense>(feature_dim, config_.hidden_dim, rng_));
  generator_.Add(std::make_unique<nn::BatchNorm>(config_.hidden_dim));
  generator_.Add(std::make_unique<nn::LeakyRelu>(kSganLeakySlope));
  generator_.Add(
      std::make_unique<nn::Dense>(config_.hidden_dim, feature_dim, rng_));
}

SganEpochStats Sgan::RunEpoch(const la::Matrix& x_real,
                              const std::vector<int>& labels,
                              const la::Matrix& x_synthetic, bool update_g) {
  obs::Span epoch_span("gale.core.sgan.epoch");
  SganEpochStats stats;
  const size_t n_real = x_real.rows();
  const size_t n_syn = x_synthetic.rows();
  const size_t n_fake = x_synthetic.rows();

  // Epochs after the first at an unchanged batch shape must not allocate:
  // every buffer below is either a workspace checkout (warm pool hit), a
  // persistent member reshaped within capacity, or a layer-owned buffer.
  // The guard and the frozen workspace turn a violation into a DCHECK
  // failure; both compile out of release builds.
  if (n_real != last_n_real_ || n_syn != last_n_syn_) {
    d_warm_ = false;
    g_warm_ = false;
    last_n_real_ = n_real;
    last_n_syn_ = n_syn;
  }
  const bool steady = d_warm_ && (!update_g || g_warm_);
  ws_.set_frozen(steady);
  std::optional<la::ScopedAllocFreeCheck> alloc_guard;
  if (steady) alloc_guard.emplace("Sgan::RunEpoch");

  // --- discriminator step ---
  const la::Matrix* fake = nullptr;
  {
    la::Workspace::Scoped g_input = ws_.Checkout(n_syn, feature_dim_);
    g_input.mat() = x_synthetic;
    for (double& v : g_input.mat().data()) {
      v += rng_.Normal(0.0, config_.generator_noise);
    }
    // The generator owns its output buffer, so the reference outlives the
    // g_input checkout.
    fake = &generator_.Forward(g_input.mat(), /*training=*/true);
  }

  // Batch layout: [real | injected synthetic errors X_S | G outputs].
  // The X_S rows are erroneous by construction (the augmentation injected
  // the errors), so they double as supervised 'error' examples — GEDet's
  // few-shot mechanism of "enhancing examples with synthetic ones". Only
  // G's *generated* rows carry the third, 'synthetic' label of Eq. (1).
  // D's first layer reads the batch as the call's compressed head_ (the
  // constant rows) plus a dense tail: the 0-3 leftover constant rows and
  // G's outputs.
  const size_t total = n_real + n_syn + n_fake;
  GALE_DCHECK_EQ(head_.rows(), (n_real + n_syn) - (n_real + n_syn) % 4)
      << "head_ not built for this call";
  la::Workspace::Scoped tail =
      ws_.Checkout(total - head_.rows(), feature_dim_);
  StackTailInto(x_real, x_synthetic, *fake, head_.rows(), &tail.mat());
  combined_labels_.assign(total, kUnlabeled);
  supervised_mask_.assign(total, 0);
  is_fake_.assign(total, 0);
  for (size_t r = 0; r < n_real; ++r) {
    if (labels[r] == kLabelError || labels[r] == kLabelCorrect) {
      combined_labels_[r] = labels[r];
      supervised_mask_[r] = 1;
    }
  }
  for (size_t r = 0; r < n_syn; ++r) {
    combined_labels_[n_real + r] = kLabelError;
    supervised_mask_[n_real + r] = 1;
  }
  for (size_t r = 0; r < n_fake; ++r) is_fake_[n_real + n_syn + r] = 1;

  // Real oracle examples carry full weight; the synthetic error examples
  // are plentiful but noisier, so they anchor the error class at a
  // discounted weight. No inverse-frequency balancing: the augmentation
  // already supplies error-class mass, and balancing on top of it makes
  // the boundary over-aggressive (precision collapses).
  row_weights_.assign(total, 0.0);
  for (size_t r = 0; r < n_real; ++r) {
    if (supervised_mask_[r]) {
      row_weights_[r] = 1.0;
    } else if (config_.unlabeled_correct_weight > 0.0) {
      // Errors are rare, so an unlabeled node is correct with high prior
      // probability: a weak 'correct' pull that covers the parts of the
      // correct manifold no oracle example reaches.
      combined_labels_[r] = kLabelCorrect;
      supervised_mask_[r] = 1;
      row_weights_[r] = config_.unlabeled_correct_weight;
    }
  }
  for (size_t r = 0; r < n_syn; ++r) {
    row_weights_[n_real + r] = config_.synthetic_example_weight;
  }

  const la::Matrix& logits =
      discriminator_.ForwardSplit(head_, tail.mat(), /*training=*/true);

  const double sup_loss = nn::ConditionalCrossEntropy(
      logits, /*num_real_classes=*/2, combined_labels_, supervised_mask_,
      &grad_sup_, row_weights_);
  const double unsup_loss =
      nn::GanUnsupervisedLoss(logits, is_fake_, &grad_unsup_, &ws_);

  grad_unsup_ *= config_.lambda_unsupervised;
  grad_sup_ += grad_unsup_;
  stats.d_loss = sup_loss + config_.lambda_unsupervised * unsup_loss;
  GALE_DCHECK_FINITE(stats.d_loss) << "discriminator loss diverged";

  discriminator_.ZeroGrad();
  discriminator_.BackwardParams(grad_sup_);
  d_optimizer_.Step(discriminator_.Parameters(), discriminator_.Gradients());
  d_warm_ = true;

  // --- generator step (feature matching) ---
  if (update_g) {
    // Real-row embeddings from the D pass; constants for feature
    // matching. Copied out (not referenced) because the forward pass below
    // overwrites D's activation buffers.
    if (real_rows_.size() != n_real) {
      real_rows_.resize(n_real);
      for (size_t r = 0; r < n_real; ++r) real_rows_[r] = r;
    }
    discriminator_.ActivationAt(embed_layer_index_)
        .SelectRowsInto(real_rows_, &h_real_);

    la::Workspace::Scoped g_input2 = ws_.Checkout(n_syn, feature_dim_);
    g_input2.mat() = x_synthetic;
    for (double& v : g_input2.mat().data()) {
      v += rng_.Normal(0.0, config_.generator_noise);
    }
    const la::Matrix& fake2 =
        generator_.Forward(g_input2.mat(), /*training=*/true);
    discriminator_.Forward(fake2, /*training=*/true);
    const la::Matrix& h_fake =
        discriminator_.ActivationAt(embed_layer_index_);

    stats.g_loss =
        nn::FeatureMatchingLoss(h_real_, h_fake, &grad_h_fake_, &ws_);

    // Route the gradient through D's lower layers to the fake inputs
    // without keeping D's parameter gradients.
    discriminator_.ZeroGrad();
    const la::Matrix& grad_fake =
        discriminator_.BackwardFrom(embed_layer_index_, grad_h_fake_);
    discriminator_.ZeroGrad();

    generator_.ZeroGrad();
    generator_.BackwardParams(grad_fake);
    g_optimizer_.Step(generator_.Parameters(), generator_.Gradients());
    g_warm_ = true;
  }

  d_optimizer_.DecayLearningRate();
  if (update_g) g_optimizer_.DecayLearningRate();
  return stats;
}

void Sgan::CompressHead(const la::Matrix& x_real,
                        const la::Matrix& x_synthetic) {
  const size_t constant_rows = x_real.rows() + x_synthetic.rows();
  head_.AssignFromDense({&x_real, &x_synthetic},
                        constant_rows - constant_rows % 4);
}

double Sgan::ValidationF1(const la::Matrix& x_real,
                          const std::vector<int>& val_labels) {
  const std::vector<int> predicted = PredictLabels(x_real);
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;
  for (size_t r = 0; r < val_labels.size(); ++r) {
    if (val_labels[r] != kLabelError && val_labels[r] != kLabelCorrect) {
      continue;
    }
    const bool truth_error = val_labels[r] == kLabelError;
    const bool pred_error = predicted[r] == kLabelError;
    if (pred_error && truth_error) ++tp;
    if (pred_error && !truth_error) ++fp;
    if (!pred_error && truth_error) ++fn;
  }
  if (tp == 0) return 0.0;
  const double p = static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double r = static_cast<double>(tp) / static_cast<double>(tp + fn);
  return 2.0 * p * r / (p + r);
}

util::Status Sgan::Train(const la::Matrix& x_real,
                         const std::vector<int>& labels,
                         const la::Matrix& x_synthetic,
                         const std::vector<int>& val_labels) {
  if (x_real.cols() != feature_dim_ || x_synthetic.cols() != feature_dim_) {
    return util::Status::InvalidArgument("Sgan::Train: feature dim mismatch");
  }
  if (labels.size() != x_real.rows()) {
    return util::Status::InvalidArgument("Sgan::Train: labels size");
  }
  if (!val_labels.empty() && val_labels.size() != x_real.rows()) {
    return util::Status::InvalidArgument("Sgan::Train: val labels size");
  }
  if (x_synthetic.rows() == 0) {
    return util::Status::InvalidArgument("Sgan::Train: empty X_S");
  }

  CompressHead(x_real, x_synthetic);
  const bool has_val = !val_labels.empty();
  double best_val = -1.0;
  int stale_epochs = 0;
  for (int epoch = 0; epoch < config_.train_epochs; ++epoch) {
    SganEpochStats stats =
        RunEpoch(x_real, labels, x_synthetic, /*update_g=*/true);
    if (has_val) {
      stats.val_f1 = ValidationF1(x_real, val_labels);
      // Early stop: no validation improvement within the patience window
      // (the paper's "early-stop strategy based on validation
      // performance").
      if (stats.val_f1 > best_val + 1e-9) {
        best_val = stats.val_f1;
        stale_epochs = 0;
      } else if (++stale_epochs >= config_.early_stop_patience) {
        epoch_stats_.push_back(stats);
        break;
      }
    }
    epoch_stats_.push_back(stats);
  }
  return util::Status::Ok();
}

util::Status Sgan::Update(const la::Matrix& x_real,
                          const std::vector<int>& labels,
                          const la::Matrix& x_synthetic, int epochs) {
  if (x_real.cols() != feature_dim_ || x_synthetic.cols() != feature_dim_) {
    return util::Status::InvalidArgument("Sgan::Update: feature dim mismatch");
  }
  if (labels.size() != x_real.rows()) {
    return util::Status::InvalidArgument("Sgan::Update: labels size");
  }
  const int budget = epochs < 0 ? config_.update_epochs : epochs;
  CompressHead(x_real, x_synthetic);
  for (int epoch = 0; epoch < budget; ++epoch) {
    epoch_stats_.push_back(
        RunEpoch(x_real, labels, x_synthetic, /*update_g=*/false));
  }
  return util::Status::Ok();
}

la::Matrix Sgan::PredictProbabilities(const la::Matrix& x) {
  GALE_CHECK_EQ(x.cols(), feature_dim_);
  return ProbabilitiesFromLogits(
      discriminator_.Forward(x, /*training=*/false));
}

std::vector<int> Sgan::PredictLabels(const la::Matrix& x) {
  return LabelsFromProbabilities(PredictProbabilities(x));
}

SganPrediction Sgan::Predict(const la::Matrix& x) {
  GALE_CHECK_EQ(x.cols(), feature_dim_);
  SganPrediction prediction;
  prediction.probabilities =
      ProbabilitiesFromLogits(discriminator_.Forward(x, /*training=*/false));
  prediction.embeddings = discriminator_.ActivationAt(embed_layer_index_);
  return prediction;
}

la::Matrix Sgan::Generate(const la::Matrix& x_synthetic) {
  GALE_CHECK_EQ(x_synthetic.cols(), feature_dim_);
  return generator_.Forward(x_synthetic, /*training=*/false);
}

DiscriminatorSnapshot Sgan::ExportDiscriminator() const {
  DiscriminatorSnapshot snap;
  snap.leaky_slope = kSganLeakySlope;
  for (size_t i = 0; i < discriminator_.num_layers(); ++i) {
    const auto* dense = dynamic_cast<const nn::Dense*>(&discriminator_.layer(i));
    if (dense == nullptr) continue;
    snap.weights.push_back(dense->weight());
    snap.biases.push_back(dense->bias());
  }
  return snap;
}

}  // namespace gale::core
