// Semi-supervised generative adversarial module (Sections III-IV).
//
// Casts error detection as a two-players game:
//  * the generator G maps synthetic erroneous node features X_S (plus
//    noise) to fake representations intended to fool D;
//  * the discriminator D classifies every representation into
//    {error (0), correct (1), synthetic (2)} — the paper's third label.
//
// Losses follow Eq. (1) and Section IV:
//  * supervised  L_s — conditional cross entropy log P(y | x, y <= 2) on
//    the labeled real nodes;
//  * unsupervised L_u — real rows maximize log P(y <= 2 | x), generated
//    rows maximize log P(3 | x);
//  * generator L(G) — Salimans feature matching on D's penultimate layer.
//
// Procedures (Fig. 4):
//  * Train()  = SGAN:  joint G/D optimization toward an approximate Nash
//    equilibrium (fixed epoch budget + early stopping on validation F1,
//    with the paper's learning-rate decay);
//  * Update() = SGAND: incremental D-only refresh after the example set
//    changed (G frozen).
//
// The node classifier M of the paper is derived by renormalizing D's
// first two logits (PredictProbabilities / PredictLabels); the embeddings
// H_n(X_R) handed to the query selector are D's penultimate activations.

#ifndef GALE_CORE_SGAN_H_
#define GALE_CORE_SGAN_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "la/workspace.h"
#include "nn/adam.h"
#include "nn/sequential.h"
#include "util/rng.h"
#include "util/status.h"

namespace gale::core {

// Node-label conventions used across the core module.
inline constexpr int kLabelError = 0;
inline constexpr int kLabelCorrect = 1;
inline constexpr int kLabelSynthetic = 2;
inline constexpr int kUnlabeled = -1;

// Negative slope of every LeakyReLU in the SGAN stacks (the paper's
// activation); exported with the discriminator so a serving snapshot
// reproduces D's forward bitwise.
inline constexpr double kSganLeakySlope = 0.2;

// Value copy of the trained discriminator's Dense parameters in layer
// order (input -> hidden -> embedding -> 3 logits). The serving layer
// (serve/snapshot.h) rebuilds D's eval-mode forward from this — the
// fused LeakyReLU+Dropout layer is plain LeakyReLU in eval, so Dense +
// LeakyReLU alone reproduce PredictProbabilities bitwise.
struct DiscriminatorSnapshot {
  std::vector<la::Matrix> weights;  // weights[i]: in_i x out_i
  std::vector<la::Matrix> biases;   // biases[i]: 1 x out_i
  double leaky_slope = kSganLeakySlope;
};

struct SganConfig {
  size_t hidden_dim = 64;
  // Width of D's penultimate layer = dimension of H_n embeddings.
  size_t embedding_dim = 32;
  double dropout = 0.2;
  double learning_rate = 2e-3;
  double lr_decay = 0.995;          // per-epoch decay ("reduce beta")
  double lambda_unsupervised = 1.0;  // λ in L(D) = L_s + λ L_u
  // Supervised weight of the injected synthetic error examples (the X_S
  // rows double as labeled 'error' examples at this discount).
  double synthetic_example_weight = 0.3;
  // Weak 'correct' prior on unlabeled real rows: node errors are rare
  // (~1-4%), so unlabeled nodes are treated as correct at this small
  // weight (PU-learning prior). 0 disables.
  double unlabeled_correct_weight = 0.05;
  double generator_noise = 0.1;      // stddev of noise added to G's input
  int train_epochs = 200;            // paper: 200 epochs to equilibrium
  int update_epochs = 20;            // paper: 20 epochs per active round
  int early_stop_patience = 20;      // epochs without val improvement
  uint64_t seed = 42;

  // kInvalidArgument when any field is outside its documented domain;
  // called by GaleConfig::Validate and at Sgan construction.
  util::Result<void> Validate() const;
};

// D's eval-mode outputs from one forward pass (Sgan::Predict).
struct SganPrediction {
  la::Matrix probabilities;  // as PredictProbabilities
  la::Matrix embeddings;     // H_n(x): D's penultimate activations
};

// P(error), P(correct) from one row of D's logits: the first two
// renormalized (max-shifted exp, then divide). The one definition of the
// classifier M's output, shared by PredictProbabilities and the serving
// scorer so both produce the same bits.
void ErrorCorrectProbabilities(const double* logits, double* p_error,
                               double* p_correct);

// kLabelError / kLabelCorrect per row of PredictProbabilities' output
// (ties go to error).
std::vector<int> LabelsFromProbabilities(const la::Matrix& probabilities);

// Per-epoch telemetry (exposed for the learning-cost experiments).
struct SganEpochStats {
  double d_loss = 0.0;
  double g_loss = 0.0;
  double val_f1 = -1.0;  // -1 when no validation set was given
};

class Sgan {
 public:
  Sgan(size_t feature_dim, const SganConfig& config);

  Sgan(const Sgan&) = delete;
  Sgan& operator=(const Sgan&) = delete;

  // Procedure SGAN: joint training from the current parameters.
  // `labels[r]` labels row r of x_real with kLabelError/kLabelCorrect, or
  // kUnlabeled. `val_labels` (may be empty) marks held-out rows used only
  // for early stopping; a row must not be in both sets.
  util::Status Train(const la::Matrix& x_real, const std::vector<int>& labels,
                     const la::Matrix& x_synthetic,
                     const std::vector<int>& val_labels = {});

  // Procedure SGAND: D-only incremental update with a frozen G.
  // `epochs` < 0 means config.update_epochs.
  util::Status Update(const la::Matrix& x_real, const std::vector<int>& labels,
                      const la::Matrix& x_synthetic, int epochs = -1);

  // P(error), P(correct) per row, renormalized over the two real classes.
  la::Matrix PredictProbabilities(const la::Matrix& x);
  // kLabelError / kLabelCorrect per row.
  std::vector<int> PredictLabels(const la::Matrix& x);

  // PredictProbabilities and the embeddings H_n(x) (D's penultimate-layer
  // activations, eval mode) from a single eval forward.
  SganPrediction Predict(const la::Matrix& x);

  // Fake representations G produces from synthetic features (eval mode).
  la::Matrix Generate(const la::Matrix& x_synthetic);

  // Copies D's current Dense parameters out for the serving layer.
  DiscriminatorSnapshot ExportDiscriminator() const;

  const std::vector<SganEpochStats>& epoch_stats() const {
    return epoch_stats_;
  }
  const SganConfig& config() const { return config_; }
  size_t feature_dim() const { return feature_dim_; }

 private:
  // One optimization epoch; returns the epoch's stats. `update_g` toggles
  // the generator step (false during SGAND).
  SganEpochStats RunEpoch(const la::Matrix& x_real,
                          const std::vector<int>& labels,
                          const la::Matrix& x_synthetic, bool update_g);

  // Builds head_ for one Train/Update call from its X_R and X_S.
  void CompressHead(const la::Matrix& x_real, const la::Matrix& x_synthetic);

  // Macro-F1 of M on the rows labeled in `val_labels`.
  double ValidationF1(const la::Matrix& x_real,
                      const std::vector<int>& val_labels);

  size_t feature_dim_;
  SganConfig config_;
  util::Rng rng_;
  nn::Sequential discriminator_;
  nn::Sequential generator_;
  size_t embed_layer_index_ = 0;  // penultimate activation index in D
  nn::Adam d_optimizer_;
  nn::Adam g_optimizer_;
  std::vector<SganEpochStats> epoch_stats_;

  // Buffer arena plus persistent per-epoch buffers: after the first epoch
  // at a given batch shape, RunEpoch performs zero la-buffer allocations
  // (asserted by a ScopedAllocFreeCheck when the shape is unchanged).
  la::Workspace ws_;
  // The rows [0, h) of [X_R; X_S] with h = 4·⌊(n_real + n_syn)/4⌋,
  // compressed once per Train/Update call: they are the same in every
  // epoch, and about two thirds of the encoder's features are exact
  // zeros, which D's first layer skips (nn::Dense::ForwardSplit). A
  // 4-aligned h keeps dW's row groups whole, so the bits are the dense
  // batch's.
  la::SparseMatrix head_;
  la::Matrix grad_sup_;
  la::Matrix grad_unsup_;
  la::Matrix h_real_;
  la::Matrix grad_h_fake_;
  std::vector<int> combined_labels_;
  std::vector<uint8_t> supervised_mask_;
  std::vector<uint8_t> is_fake_;
  std::vector<double> row_weights_;
  std::vector<size_t> real_rows_;  // 0..n_real-1, for the h_real gather
  // Steady-state detection for the alloc-free guard.
  size_t last_n_real_ = 0;
  size_t last_n_syn_ = 0;
  bool d_warm_ = false;  // D step has run at least once at this shape
  bool g_warm_ = false;  // G step has run at least once at this shape
};

}  // namespace gale::core

#endif  // GALE_CORE_SGAN_H_
