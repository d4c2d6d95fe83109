// Steady-state allocation audit: after a warm-up step, repeated training
// steps of a fixed-shape model must perform ZERO la-buffer allocations —
// the layer buffers, workspace checkouts, and optimizer moments are all
// warm. Asserted through la::BufferAllocations(), which is compiled in
// every configuration, so this test bites in plain Release builds too
// (the in-library ScopedAllocFreeCheck guards only fire under
// GALE_DEBUG_CHECKS).

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sgan.h"
#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "la/workspace.h"
#include "nn/activations.h"
#include "nn/adam.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/gcn_layer.h"
#include "nn/losses.h"
#include "nn/sequential.h"
#include "prop/ppr.h"
#include "util/rng.h"

namespace gale {
namespace {

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return la::Matrix::RandomNormal(rows, cols, 1.0, rng);
}

std::vector<std::pair<size_t, size_t>> RingEdges(size_t n) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
  return edges;
}

// Runs `step` twice to warm every buffer, then asserts five more steps
// leave the process-wide la-buffer allocation counter untouched.
template <typename Fn>
void ExpectSteadyStateAllocFree(Fn step, const char* what) {
  step();
  step();
  const uint64_t before = la::BufferAllocations();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(la::BufferAllocations(), before)
      << what << ": la-buffer allocations on the steady-state path";
}

TEST(AllocFreeTest, DenseMlpTrainingStep) {
  util::Rng rng(11);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(12, 16, rng));
  model.Add(std::make_unique<nn::LeakyRelu>(0.2));
  model.Add(std::make_unique<nn::Dropout>(0.3, rng));
  model.Add(std::make_unique<nn::Dense>(16, 3, rng));
  nn::Adam optimizer(nn::AdamOptions{});
  la::Workspace ws;
  la::Matrix grad;

  const la::Matrix x = RandomMatrix(20, 12, 12);
  std::vector<int> labels(20);
  for (size_t r = 0; r < labels.size(); ++r) labels[r] = r % 3;
  const std::vector<uint8_t> mask(20, 1);

  ExpectSteadyStateAllocFree(
      [&] {
        const la::Matrix& logits = model.Forward(x, /*training=*/true);
        nn::SoftmaxCrossEntropy(logits, labels, mask, &grad, {}, &ws);
        model.ZeroGrad();
        model.Backward(grad);
        optimizer.Step(model.Parameters(), model.Gradients());
      },
      "Dense MLP + Adam");
}

// D's first block: the fused layer's keep bits and buffers are reused
// across steps.
TEST(AllocFreeTest, LeakyReluDropoutTrainingStep) {
  util::Rng rng(12);
  nn::Sequential model;
  model.Add(std::make_unique<nn::Dense>(12, 16, rng));
  model.Add(std::make_unique<nn::LeakyReluDropout>(0.2, 0.3, rng));
  model.Add(std::make_unique<nn::Dense>(16, 3, rng));
  nn::Adam optimizer(nn::AdamOptions{});
  la::Workspace ws;
  la::Matrix grad;

  const la::Matrix x = RandomMatrix(20, 12, 15);
  std::vector<int> labels(20);
  for (size_t r = 0; r < labels.size(); ++r) labels[r] = r % 3;
  const std::vector<uint8_t> mask(20, 1);

  ExpectSteadyStateAllocFree(
      [&] {
        const la::Matrix& logits = model.Forward(x, /*training=*/true);
        nn::SoftmaxCrossEntropy(logits, labels, mask, &grad, {}, &ws);
        model.ZeroGrad();
        model.Backward(grad);
        optimizer.Step(model.Parameters(), model.Gradients());
      },
      "Dense + LeakyReluDropout + Adam");
}

TEST(AllocFreeTest, GcnTrainingStep) {
  const size_t n = 24;
  const la::SparseMatrix adjacency =
      la::SparseMatrix::NormalizedAdjacency(n, RingEdges(n));
  util::Rng rng(13);
  nn::Sequential model;
  model.Add(std::make_unique<nn::GcnLayer>(&adjacency, 8, 10, rng));
  model.Add(std::make_unique<nn::Relu>());
  model.Add(std::make_unique<nn::Dropout>(0.2, rng));
  model.Add(std::make_unique<nn::GcnLayer>(&adjacency, 10, 2, rng));
  nn::Adam optimizer(nn::AdamOptions{});
  la::Workspace ws;
  la::Matrix grad;

  const la::Matrix x = RandomMatrix(n, 8, 14);
  std::vector<int> labels(n);
  for (size_t r = 0; r < labels.size(); ++r) labels[r] = r % 2;
  const std::vector<uint8_t> mask(n, 1);

  ExpectSteadyStateAllocFree(
      [&] {
        const la::Matrix& logits = model.Forward(x, /*training=*/true);
        nn::SoftmaxCrossEntropy(logits, labels, mask, &grad, {}, &ws);
        model.ZeroGrad();
        model.Backward(grad);
        optimizer.Step(model.Parameters(), model.Gradients());
      },
      "GCN stack + Adam");
}

TEST(AllocFreeTest, SganUpdateEpoch) {
  const size_t d = 10;
  core::SganConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 8;
  core::Sgan sgan(d, config);

  const la::Matrix x_real = RandomMatrix(30, d, 15);
  const la::Matrix x_syn = RandomMatrix(6, d, 16);
  std::vector<int> labels(30, core::kUnlabeled);
  labels[0] = core::kLabelError;
  labels[1] = core::kLabelCorrect;
  labels[2] = core::kLabelCorrect;

  ExpectSteadyStateAllocFree(
      [&] { ASSERT_TRUE(sgan.Update(x_real, labels, x_syn, 1).ok()); },
      "Sgan::Update epoch (SGAND)");
}

TEST(AllocFreeTest, SganUpdateEpochSparseInput) {
  // SganUpdateEpoch on mostly-zero features, so the compressed head D's
  // first layer reads has a real sparsity pattern; 30 + 7 rows leave one
  // constant row in the dense tail. Each Update call rebuilds the head in
  // place, which must reuse its buffers.
  const size_t d = 10;
  core::SganConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 8;
  core::Sgan sgan(d, config);

  la::Matrix x_real = RandomMatrix(30, d, 19);
  la::Matrix x_syn = RandomMatrix(7, d, 20);
  util::Rng rng(21);
  for (la::Matrix* x : {&x_real, &x_syn}) {
    for (double& v : x->data()) {
      if (rng.Uniform() < 2.0 / 3.0) v = 0.0;
    }
  }
  std::vector<int> labels(30, core::kUnlabeled);
  labels[0] = core::kLabelError;
  labels[1] = core::kLabelCorrect;

  ExpectSteadyStateAllocFree(
      [&] { ASSERT_TRUE(sgan.Update(x_real, labels, x_syn, 1).ok()); },
      "Sgan::Update epoch (SGAND), sparse input");
}

TEST(AllocFreeTest, SganTrainEpochWithGeneratorStep) {
  const size_t d = 10;
  core::SganConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 8;
  config.train_epochs = 1;  // one full G+D epoch per Train call
  config.early_stop_patience = 1 << 20;
  core::Sgan sgan(d, config);

  const la::Matrix x_real = RandomMatrix(30, d, 17);
  const la::Matrix x_syn = RandomMatrix(6, d, 18);
  std::vector<int> labels(30, core::kUnlabeled);
  labels[0] = core::kLabelError;
  labels[1] = core::kLabelCorrect;

  ExpectSteadyStateAllocFree(
      [&] { ASSERT_TRUE(sgan.Train(x_real, labels, x_syn).ok()); },
      "Sgan::Train epoch (G+D)");
}

TEST(AllocFreeTest, PprRecomputeWithCacheDisabled) {
  const size_t n = 40;
  const la::SparseMatrix walk =
      la::SparseMatrix::NormalizedAdjacency(n, RingEdges(n));
  prop::PprEngine ppr(&walk, prop::PprOptions{.cache_rows = false});

  // With the cache off, every Row call recomputes — the U_GALE ablation
  // path — as a one-seed batch: the batch's n x 64 ping-pong buffers are
  // warm workspace checkouts after the first row, and the returned row is
  // a reused vector. std::vector is not an la buffer, so the counter sees
  // only the workspace; repeated calls must also return identical rows
  // from the same storage.
  const std::vector<double>& warm = ppr.Row(7);
  const std::vector<double> first = warm;
  const double* storage = warm.data();
  const uint64_t before = la::BufferAllocations();
  for (int i = 0; i < 4; ++i) {
    const std::vector<double>& row = ppr.Row(7);
    ASSERT_EQ(row, first);
    ASSERT_EQ(row.data(), storage) << "cache-off Row() reallocated its row";
  }
  EXPECT_EQ(la::BufferAllocations(), before);
}

TEST(AllocFreeTest, PprNarrowBatches) {
  // The store's publish pattern: a persistent engine evicts a few rows and
  // recomputes them as one narrow batch. Every width shares the fixed
  // n x 64 ping-pong buffers, so after the first call no width allocates
  // an la buffer.
  const size_t n = 40;
  const la::SparseMatrix walk =
      la::SparseMatrix::NormalizedAdjacency(n, RingEdges(n));
  prop::PprEngine ppr(&walk);
  const std::vector<size_t> seeds = {3, 11, 19, 27, 35};
  ppr.ComputeRows(std::span<const size_t>(seeds.data(), 1));
  const uint64_t before = la::BufferAllocations();
  for (size_t width = 1; width <= seeds.size(); ++width) {
    const std::span<const size_t> batch(seeds.data(), width);
    ppr.EvictRows(batch);
    ppr.ComputeRows(batch);
    ASSERT_TRUE(ppr.IsCached(seeds[width - 1]));
  }
  EXPECT_EQ(la::BufferAllocations(), before)
      << "narrow PPR batches allocated la buffers";
}

}  // namespace
}  // namespace gale
