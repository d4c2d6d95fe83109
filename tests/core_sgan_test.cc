#include "core/sgan.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/string_util.h"

namespace gale::core {
namespace {

// Two Gaussian blobs in feature space: "correct" nodes around +mu,
// "erroneous" nodes around -mu. X_S rows come from the error blob with
// extra spread (pretend-synthetic errors).
struct BlobData {
  la::Matrix x_real;
  std::vector<int> labels;        // sparse examples
  std::vector<int> full_truth;    // every node's true class
  la::Matrix x_synthetic;
};

BlobData MakeBlobs(size_t n, size_t labeled_per_class, uint64_t seed,
                   size_t d = 8) {
  util::Rng rng(seed);
  BlobData data;
  data.x_real = la::Matrix(n, d);
  data.full_truth.assign(n, kLabelCorrect);
  for (size_t i = 0; i < n; ++i) {
    const bool error = i < n / 4;  // 25% errors
    data.full_truth[i] = error ? kLabelError : kLabelCorrect;
    for (size_t c = 0; c < d; ++c) {
      const double mu = error ? -1.5 : 1.5;
      data.x_real.At(i, c) = rng.Normal(mu, 1.0);
    }
  }
  data.labels.assign(n, kUnlabeled);
  size_t have_error = 0;
  size_t have_correct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (data.full_truth[i] == kLabelError && have_error < labeled_per_class) {
      data.labels[i] = kLabelError;
      ++have_error;
    } else if (data.full_truth[i] == kLabelCorrect &&
               have_correct < labeled_per_class) {
      data.labels[i] = kLabelCorrect;
      ++have_correct;
    }
  }
  data.x_synthetic = la::Matrix(n / 4, d);
  for (size_t i = 0; i < n / 4; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.x_synthetic.At(i, c) = rng.Normal(-1.5, 1.6);
    }
  }
  return data;
}

SganConfig FastConfig(uint64_t seed) {
  SganConfig config;
  config.hidden_dim = 24;
  config.embedding_dim = 12;
  config.train_epochs = 120;
  config.update_epochs = 10;
  config.seed = seed;
  return config;
}

TEST(SganTest, RejectsBadShapes) {
  Sgan sgan(4, FastConfig(1));
  la::Matrix x(10, 4);
  la::Matrix xs(5, 4);
  la::Matrix wrong(10, 3);
  std::vector<int> labels(10, kUnlabeled);
  EXPECT_FALSE(sgan.Train(wrong, labels, xs).ok());
  EXPECT_FALSE(sgan.Train(x, std::vector<int>(9, 0), xs).ok());
  EXPECT_FALSE(sgan.Train(x, labels, la::Matrix(0, 4)).ok());
  EXPECT_FALSE(sgan.Train(x, labels, xs, std::vector<int>(3, 0)).ok());
}

TEST(SganTest, LearnsSeparableBlobs) {
  BlobData data = MakeBlobs(400, 12, 3);
  Sgan sgan(data.x_real.cols(), FastConfig(3));
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());

  const std::vector<int> predicted = sgan.PredictLabels(data.x_real);
  size_t correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    correct += (predicted[i] == data.full_truth[i]);
  }
  EXPECT_GT(static_cast<double>(correct) / predicted.size(), 0.9)
      << "easily separable blobs must be classified well";
}

TEST(SganTest, ProbabilitiesAreNormalizedPairs) {
  BlobData data = MakeBlobs(200, 8, 5);
  Sgan sgan(data.x_real.cols(), FastConfig(5));
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  la::Matrix probs = sgan.PredictProbabilities(data.x_real);
  ASSERT_EQ(probs.cols(), 2u);
  for (size_t r = 0; r < probs.rows(); ++r) {
    EXPECT_NEAR(probs.At(r, 0) + probs.At(r, 1), 1.0, 1e-9);
    EXPECT_GE(probs.At(r, 0), 0.0);
  }
}

TEST(SganTest, EmbeddingsHaveConfiguredWidthAndSeparateClasses) {
  BlobData data = MakeBlobs(300, 10, 7);
  SganConfig config = FastConfig(7);
  Sgan sgan(data.x_real.cols(), config);
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  la::Matrix h = sgan.Predict(data.x_real).embeddings;
  EXPECT_EQ(h.rows(), 300u);
  EXPECT_EQ(h.cols(), config.embedding_dim);

  // Class centroids in embedding space must be farther apart than the
  // average within-class spread (the embeddings are discriminative).
  la::Matrix centroid(2, h.cols());
  size_t counts[2] = {0, 0};
  for (size_t i = 0; i < h.rows(); ++i) {
    const int c = data.full_truth[i];
    counts[c] += 1;
    for (size_t j = 0; j < h.cols(); ++j) centroid.At(c, j) += h.At(i, j);
  }
  for (int c = 0; c < 2; ++c) {
    for (size_t j = 0; j < h.cols(); ++j) {
      centroid.At(c, j) /= static_cast<double>(counts[c]);
    }
  }
  const double between = centroid.RowDistanceSquared(0, centroid, 1);
  double within = 0.0;
  for (size_t i = 0; i < h.rows(); ++i) {
    within += h.RowDistanceSquared(i, centroid, data.full_truth[i]);
  }
  within /= static_cast<double>(h.rows());
  EXPECT_GT(between, within * 0.5);
}

TEST(SganTest, UpdateImprovesWithNewLabels) {
  // Start with almost no labels; Update with many more labels must not
  // hurt and should typically improve accuracy.
  BlobData data = MakeBlobs(400, 3, 9);
  Sgan sgan(data.x_real.cols(), FastConfig(9));
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  const std::vector<int> before = sgan.PredictLabels(data.x_real);
  size_t correct_before = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    correct_before += (before[i] == data.full_truth[i]);
  }

  // Reveal 40 labels per class (SGAND path).
  BlobData rich = MakeBlobs(400, 40, 9);
  ASSERT_TRUE(
      sgan.Update(data.x_real, rich.labels, data.x_synthetic, 30).ok());
  const std::vector<int> after = sgan.PredictLabels(data.x_real);
  size_t correct_after = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    correct_after += (after[i] == data.full_truth[i]);
  }
  EXPECT_GE(correct_after + 10, correct_before)
      << "incremental update must not collapse the classifier";
  EXPECT_GT(static_cast<double>(correct_after) / after.size(), 0.85);
}

TEST(SganTest, GenerateProducesFeatureSpaceRows) {
  BlobData data = MakeBlobs(100, 5, 11);
  Sgan sgan(data.x_real.cols(), FastConfig(11));
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  la::Matrix fake = sgan.Generate(data.x_synthetic);
  EXPECT_EQ(fake.rows(), data.x_synthetic.rows());
  EXPECT_EQ(fake.cols(), data.x_real.cols());
  for (double v : fake.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(SganTest, FeatureMatchingPullsFakesTowardRealMean) {
  BlobData data = MakeBlobs(300, 10, 13);
  Sgan sgan(data.x_real.cols(), FastConfig(13));
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());

  // After training, the generator's output mean in the discriminator's
  // embedding space should sit closer to the real mean than the raw
  // synthetic inputs do.
  la::Matrix h_real = sgan.Predict(data.x_real).embeddings;
  la::Matrix h_fake =
      sgan.Predict(sgan.Generate(data.x_synthetic)).embeddings;
  la::Matrix h_raw = sgan.Predict(data.x_synthetic).embeddings;
  la::Matrix mean_real = h_real.ColMean();
  la::Matrix mean_fake = h_fake.ColMean();
  la::Matrix mean_raw = h_raw.ColMean();
  const double fake_gap = mean_fake.RowDistanceSquared(0, mean_real, 0);
  const double raw_gap = mean_raw.RowDistanceSquared(0, mean_real, 0);
  EXPECT_LT(fake_gap, raw_gap * 1.5)
      << "generator should not drift away from the real distribution";
}

TEST(SganTest, EarlyStoppingRecordsValidationF1) {
  BlobData data = MakeBlobs(300, 10, 15);
  // Mark a validation set disjoint from training labels.
  std::vector<int> val(300, kUnlabeled);
  for (size_t i = 250; i < 300; ++i) val[i] = data.full_truth[i];
  SganConfig config = FastConfig(15);
  config.early_stop_patience = 5;
  Sgan sgan(data.x_real.cols(), config);
  ASSERT_TRUE(
      sgan.Train(data.x_real, data.labels, data.x_synthetic, val).ok());
  ASSERT_FALSE(sgan.epoch_stats().empty());
  EXPECT_GE(sgan.epoch_stats().back().val_f1, 0.0);
  EXPECT_LE(static_cast<int>(sgan.epoch_stats().size()),
            config.train_epochs);
}

TEST(SganTest, DeterministicUnderSeed) {
  BlobData data = MakeBlobs(150, 8, 17);
  Sgan a(data.x_real.cols(), FastConfig(17));
  Sgan b(data.x_real.cols(), FastConfig(17));
  ASSERT_TRUE(a.Train(data.x_real, data.labels, data.x_synthetic).ok());
  ASSERT_TRUE(b.Train(data.x_real, data.labels, data.x_synthetic).ok());
  EXPECT_EQ(a.PredictLabels(data.x_real), b.PredictLabels(data.x_real));
}

// FNV-1a over the raw bytes of `mats`, in order.
uint64_t HashBytes(const std::vector<const la::Matrix*>& mats) {
  std::string bytes;
  for (const la::Matrix* m : mats) {
    bytes.append(reinterpret_cast<const char*>(m->data().data()),
                 m->size() * sizeof(double));
  }
  return util::Fnv1aHash(std::string_view(bytes));
}

TEST(SganTest, GoldenBits) {
  // Pins SGAN numerics across commits: a change that only removes unused
  // work must leave every trained weight and every probability bit
  // unchanged. Train exercises the D and G steps, the Updates the SGAND
  // path, including a warm second call. If a change is *meant* to move
  // the numerics, re-record both constants from the failure message and
  // say why in the commit.
  BlobData data = MakeBlobs(150, 8, 21);
  BlobData rich = MakeBlobs(150, 20, 21);
  SganConfig config = FastConfig(21);
  config.train_epochs = 30;
  Sgan sgan(data.x_real.cols(), config);
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  ASSERT_TRUE(sgan.Update(data.x_real, rich.labels, data.x_synthetic).ok());
  ASSERT_TRUE(sgan.Update(data.x_real, rich.labels, data.x_synthetic, 5).ok());

  const DiscriminatorSnapshot snap = sgan.ExportDiscriminator();
  std::vector<const la::Matrix*> params;
  for (size_t i = 0; i < snap.weights.size(); ++i) {
    params.push_back(&snap.weights[i]);
    params.push_back(&snap.biases[i]);
  }
  const la::Matrix probs = sgan.PredictProbabilities(data.x_real);

  const uint64_t weights_hash = HashBytes(params);
  const uint64_t probs_hash = HashBytes({&probs});
  EXPECT_EQ(weights_hash, 0x3559f35a677e4399ULL)
      << std::hex << "weights hash 0x" << weights_hash;
  EXPECT_EQ(probs_hash, 0xfc7fd659f111434eULL)
      << std::hex << "probabilities hash 0x" << probs_hash;
}

// Zeroes about two thirds of the entries (each with probability 2/3,
// alternating the zero's sign) and all of column `zero_col`: the shape of
// the encoder's hashed-token and one-hot features.
void Sparsify(la::Matrix* x, size_t zero_col, util::Rng& rng) {
  for (size_t r = 0; r < x->rows(); ++r) {
    for (size_t c = 0; c < x->cols(); ++c) {
      if (c == zero_col || rng.Uniform() < 2.0 / 3.0) {
        x->At(r, c) = (r + c) % 2 == 0 ? 0.0 : -0.0;
      }
    }
  }
}

TEST(SganTest, GoldenBitsSparseInput) {
  // GoldenBits on mostly-zero features, the shape the first discriminator
  // layer sees in detection. n_real + n_syn = 150 + 37 ≡ 3 (mod 4) and
  // d = 10 ≡ 2 (mod 4), so rows and columns both have ragged tails.
  // Recorded before the first layer learned to skip zeros; skipping
  // exact zeros must not move a bit.
  BlobData data = MakeBlobs(150, 8, 22, /*d=*/10);
  const BlobData rich = MakeBlobs(150, 20, 22, /*d=*/10);
  util::Rng rng(23);
  Sparsify(&data.x_real, 3, rng);
  Sparsify(&data.x_synthetic, 3, rng);
  SganConfig config = FastConfig(22);
  config.train_epochs = 30;
  Sgan sgan(data.x_real.cols(), config);
  ASSERT_TRUE(sgan.Train(data.x_real, data.labels, data.x_synthetic).ok());
  ASSERT_TRUE(sgan.Update(data.x_real, rich.labels, data.x_synthetic).ok());
  ASSERT_TRUE(sgan.Update(data.x_real, rich.labels, data.x_synthetic, 5).ok());

  const DiscriminatorSnapshot snap = sgan.ExportDiscriminator();
  std::vector<const la::Matrix*> params;
  for (size_t i = 0; i < snap.weights.size(); ++i) {
    params.push_back(&snap.weights[i]);
    params.push_back(&snap.biases[i]);
  }
  const la::Matrix probs = sgan.PredictProbabilities(data.x_real);

  const uint64_t weights_hash = HashBytes(params);
  const uint64_t probs_hash = HashBytes({&probs});
  EXPECT_EQ(weights_hash, 0x43cf5d43fcd57144ULL)
      << std::hex << "weights hash 0x" << weights_hash;
  EXPECT_EQ(probs_hash, 0xf79579158d095ea3ULL)
      << std::hex << "probabilities hash 0x" << probs_hash;
}

}  // namespace
}  // namespace gale::core
