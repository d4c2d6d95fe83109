#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gradient_check.h"
#include "la/simd.h"
#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/gcn_layer.h"
#include "nn/sequential.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gale::nn {
namespace {

using gale::testing::CheckLayerGradients;

// FNV-1a of a matrix's raw bytes, for the golden-bits tests.
uint64_t HashBits(const la::Matrix& m) {
  return util::Fnv1aHash(std::string_view(
      reinterpret_cast<const char*>(m.data().data()),
      m.size() * sizeof(double)));
}

TEST(DenseTest, ForwardMatchesHandComputation) {
  util::Rng rng(1);
  Dense dense(2, 2, rng);
  // Overwrite the weights deterministically.
  la::Matrix* w = dense.Parameters()[0];
  la::Matrix* b = dense.Parameters()[1];
  *w = la::Matrix::FromRows({{1, 2}, {3, 4}});
  *b = la::Matrix::FromRows({{10, 20}});
  la::Matrix x = la::Matrix::FromRows({{1, 1}});
  la::Matrix y = dense.Forward(x, false);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 1 + 3 + 10);
  EXPECT_DOUBLE_EQ(y.At(0, 1), 2 + 4 + 20);
}

TEST(DenseTest, GradientCheck) {
  util::Rng rng(2);
  Dense dense(4, 3, rng);
  la::Matrix x = la::Matrix::RandomNormal(5, 4, 1.0, rng);
  CheckLayerGradients(dense, x, rng);
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  la::Matrix x = la::Matrix::FromRows({{-1, 0, 2}});
  la::Matrix y = relu.Forward(x, false);
  EXPECT_DOUBLE_EQ(y.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.At(0, 2), 2.0);
}

// Backward masks on the cached output. Five copies of the seven edge
// inputs put each in every lane of a 4-lane block, and NaN and ±inf in
// the scalar tail too. LeakyRelu's mask equals the input rule in <= 0 at
// every input, NaN included; Relu's Forward maps NaN to +0.0, so its
// Backward passes a NaN input no gradient.
TEST(ReluTest, BackwardMaskEdgeInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edge = {-1.0, -0.0, 0.0, 2.0, nan, -inf, inf};
  const std::vector<double> relu_grad = {0, 0, 0, 1, 0, 0, 1};
  const std::vector<double> leaky_grad = {0.2, 0.2, 0.2, 1, 1, 0.2, 1};
  la::Matrix x(1, 5 * edge.size());
  for (size_t c = 0; c < x.cols(); ++c) x.At(0, c) = edge[c % edge.size()];
  const la::Matrix ones(x.rows(), x.cols(), 1.0);
  for (la::simd::Isa isa : la::simd::SupportedIsas()) {
    la::simd::ScopedIsaOverride pin(isa);
    Relu relu;
    LeakyRelu leaky(0.2);
    relu.Forward(x, true);
    leaky.Forward(x, true);
    const la::Matrix& relu_g = relu.Backward(ones);
    const la::Matrix& leaky_g = leaky.Backward(ones);
    for (size_t c = 0; c < x.cols(); ++c) {
      EXPECT_EQ(relu_g.At(0, c), relu_grad[c % edge.size()])
          << la::simd::IsaName(isa) << " column " << c;
      EXPECT_EQ(leaky_g.At(0, c), leaky_grad[c % edge.size()])
          << la::simd::IsaName(isa) << " column " << c;
    }
  }
}

// A tiny slope underflows slope·in to -0.0, which still masks as <= 0.
TEST(LeakyReluTest, UnderflowKeepsTheNegativeMask) {
  LeakyRelu leaky(1e-300);
  la::Matrix x = la::Matrix::FromRows({{-1e-300, 1e-300}});
  leaky.Forward(x, true);
  const la::Matrix& g = leaky.Backward(la::Matrix(1, 2, 1.0));
  EXPECT_EQ(g.At(0, 0), 1e-300);
  EXPECT_EQ(g.At(0, 1), 1.0);
}

TEST(LeakyReluDeathTest, RejectsZeroAndInfiniteSlopes) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ LeakyRelu zero(0.0); }, "finite and > 0");
  EXPECT_DEATH({ LeakyRelu infinite(inf); }, "finite and > 0");
  // GcnLayer's folded LeakyReLU masks on its output the same way.
  const la::SparseMatrix adj =
      la::SparseMatrix::NormalizedAdjacency(3, {{0, 1}, {1, 2}});
  util::Rng rng(1);
  EXPECT_DEATH(
      {
        GcnLayer layer(&adj, 2, 2, rng,
                       GcnLayerOptions{.activation = GcnActivation::kLeakyRelu,
                                       .leaky_slope = inf});
      },
      "finite and > 0");
}

// Gradient checks for all smooth/piecewise activations. Inputs are kept
// away from the ReLU kink (finite differences break exactly at 0).
class ActivationGradientTest
    : public ::testing::TestWithParam<
          std::function<std::unique_ptr<Layer>()>> {};

TEST_P(ActivationGradientTest, GradientCheck) {
  util::Rng rng(3);
  std::unique_ptr<Layer> layer = GetParam()();
  la::Matrix x = la::Matrix::RandomNormal(4, 6, 1.0, rng);
  for (double& v : x.data()) {
    if (std::abs(v) < 1e-3) v = 0.1;  // avoid non-differentiable points
  }
  CheckLayerGradients(*layer, x, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ActivationGradientTest,
    ::testing::Values([] { return std::make_unique<Relu>(); },
                      [] { return std::make_unique<LeakyRelu>(0.2); },
                      [] { return std::make_unique<Sigmoid>(); },
                      [] { return std::make_unique<Tanh>(); }));

TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(4);
  Dropout dropout(0.5, rng);
  la::Matrix x = la::Matrix::RandomNormal(3, 3, 1.0, rng);
  la::Matrix y = dropout.Forward(x, /*training=*/false);
  EXPECT_TRUE(y.AllClose(x, 0.0));
}

TEST(DropoutTest, TrainingModePreservesExpectation) {
  util::Rng rng(5);
  Dropout dropout(0.3, rng);
  la::Matrix x(200, 50, 1.0);
  la::Matrix y = dropout.Forward(x, /*training=*/true);
  // Inverted dropout: E[y] = x. The sample mean over 10k entries should
  // land close.
  EXPECT_NEAR(y.Sum() / static_cast<double>(y.size()), 1.0, 0.05);
  // Entries are either zero or scaled by 1/(1-rate).
  for (double v : y.data()) {
    EXPECT_TRUE(v == 0.0 || std::abs(v - 1.0 / 0.7) < 1e-12);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(6);
  Dropout dropout(0.5, rng);
  la::Matrix x(4, 4, 1.0);
  la::Matrix y = dropout.Forward(x, /*training=*/true);
  la::Matrix grad_out(4, 4, 1.0);
  la::Matrix grad_in = dropout.Backward(grad_out);
  // Wherever the forward output is zero, the gradient must be zero, and
  // vice versa with the same scale.
  for (size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(grad_in.data()[i], y.data()[i]);
  }
}

TEST(DropoutTest, GoldenBits) {
  // Pins the training mask and output bit for bit, signed zeros included:
  // a dropped element is +0.0 whatever the sign of its input, and a kept
  // -0.0 stays -0.0. Backward of a ones gradient returns the mask itself.
  util::Rng data_rng(7);
  la::Matrix x = la::Matrix::RandomNormal(64, 64, 1.0, data_rng);
  for (size_t i = 0; i < x.size(); i += 5) x.data()[i] = -x.data()[i] * 0.0;
  util::Rng rng(20230405);
  Dropout dropout(0.2, rng);
  const la::Matrix y = dropout.Forward(x, /*training=*/true);
  const la::Matrix mask = dropout.Backward(la::Matrix(64, 64, 1.0));
  EXPECT_EQ(HashBits(y), 0x84a5cf1e28bcbebeULL)
      << std::hex << "output hash 0x" << HashBits(y);
  EXPECT_EQ(HashBits(mask), 0x4a735f96290d79c5ULL)
      << std::hex << "mask hash 0x" << HashBits(mask);
}

// LeakyReluDropout against the two layers it fuses and against the
// formulas they applied before the fusion: dropout drops element i when
// rng.Uniform() < rate, keeps lrelu(z)·scale otherwise, and backpropagates
// t = g·(0 or scale), then t·slope where lrelu(z) <= 0.
struct FusedCase {
  size_t rows;
  size_t cols;
  double rate;
  bool training;
};

// Edge inputs first (signed zeros, infinities, NaN, subnormals, and
// negatives whose slope product underflows to -0.0 or a subnormal), then
// normals; the edge gradients are the signed zeros and NaN.
la::Matrix FusedInput(size_t rows, size_t cols, uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> edge = {0.0,   -0.0,        inf,   -inf,
                                    nan,   tiny,        -tiny, 1e-310,
                                    -1e-310, -4.0 * tiny, -1e-300};
  util::Rng rng(seed);
  la::Matrix x = la::Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < x.size() && i < edge.size(); ++i) {
    x.data()[(i * 5) % x.size()] = edge[i];
  }
  return x;
}

la::Matrix FusedGrad(size_t rows, size_t cols, uint64_t seed) {
  const std::vector<double> edge = {0.0, -0.0,
                                    std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(seed);
  la::Matrix g = la::Matrix::RandomNormal(rows, cols, 1.0, rng);
  for (size_t i = 0; i < g.size() && i < edge.size(); ++i) {
    g.data()[(i * 3 + 1) % g.size()] = edge[i];
  }
  return g;
}

bool SameBits(const la::Matrix& a, const la::Matrix& b) {
  // memcmp takes no null pointer, which an empty matrix's data may be.
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data().data(), b.data().data(),
                                       a.size() * sizeof(double)) == 0);
}

TEST(LeakyReluDropoutTest, MatchesLeakyReluThenDropout) {
  constexpr double kSlope = 0.2;
  const std::vector<FusedCase> cases = {
      {0, 3, 0.3, true},  {1, 1, 0.3, true},  {1, 7, 0.3, true},
      {3, 3, 0.5, true},  {5, 13, 0.2, true}, {5, 13, 0.0, true},
      {5, 13, 0.3, false}, {1, 9, 0.0, false}};
  for (la::simd::Isa isa : la::simd::SupportedIsas()) {
    la::simd::ScopedIsaOverride pin(isa);
    for (const FusedCase& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << la::simd::IsaName(isa) << " " << c.rows << "x" << c.cols
                   << " rate " << c.rate << " training " << c.training);
      const la::Matrix x = FusedInput(c.rows, c.cols, 41);
      const la::Matrix g = FusedGrad(c.rows, c.cols, 42);

      util::Rng pair_rng(43);
      LeakyRelu leaky(kSlope);
      Dropout dropout(c.rate, pair_rng);
      const la::Matrix pair_out =
          dropout.Forward(leaky.Forward(x, c.training), c.training);
      const la::Matrix pair_grad = leaky.Backward(dropout.Backward(g));

      util::Rng fused_rng(43);
      LeakyReluDropout fused(kSlope, c.rate, fused_rng);
      const la::Matrix fused_out = fused.Forward(x, c.training);
      const la::Matrix fused_grad = fused.Backward(g);

      // The formulas the pair applied before the fusion.
      util::Rng ref_rng(43);
      const bool drops = c.training && c.rate > 0.0;
      const double scale = 1.0 / (1.0 - c.rate);
      la::Matrix ref_out(c.rows, c.cols);
      la::Matrix ref_grad(c.rows, c.cols);
      for (size_t i = 0; i < x.size(); ++i) {
        const double z = x.data()[i];
        const double a = z > 0.0 ? z : kSlope * z;
        const bool drop = drops && ref_rng.Uniform() < c.rate;
        ref_out.data()[i] = !drops ? a : drop ? 0.0 : a * scale;
        const double t =
            drops ? g.data()[i] * (drop ? 0.0 : scale) : g.data()[i];
        ref_grad.data()[i] = a <= 0.0 ? t * kSlope : t;
      }

      EXPECT_TRUE(SameBits(fused_out, pair_out)) << "forward vs pair";
      EXPECT_TRUE(SameBits(fused_grad, pair_grad)) << "backward vs pair";
      EXPECT_TRUE(SameBits(fused_out, ref_out)) << "forward vs formula";
      EXPECT_TRUE(SameBits(fused_grad, ref_grad)) << "backward vs formula";
      // The same draws, so the generators end in the same state.
      const uint64_t ref_next = ref_rng.Next();
      EXPECT_EQ(fused_rng.Next(), ref_next);
      EXPECT_EQ(pair_rng.Next(), ref_next);
    }
  }
}

TEST(LeakyReluDropoutDeathTest, RejectsBadSlopeAndRate) {
  util::Rng rng(1);
  EXPECT_DEATH({ LeakyReluDropout zero(0.0, 0.5, rng); }, "finite and > 0");
  EXPECT_DEATH({ LeakyReluDropout one(0.2, 1.0, rng); }, "dropout rate");
}

TEST(BatchNormTest, NormalizesBatchInTraining) {
  BatchNorm bn(3);
  util::Rng rng(7);
  la::Matrix x = la::Matrix::RandomNormal(64, 3, 4.0, rng);
  for (size_t i = 0; i < x.rows(); ++i) x.At(i, 1) += 100.0;  // big offset
  la::Matrix y = bn.Forward(x, /*training=*/true);
  la::Matrix mean = y.ColMean();
  for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(mean.At(0, c), 0.0, 1e-9);
  // Unit variance per column.
  for (size_t c = 0; c < 3; ++c) {
    double var = 0.0;
    for (size_t r = 0; r < y.rows(); ++r) var += y.At(r, c) * y.At(r, c);
    var /= static_cast<double>(y.rows());
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  BatchNorm bn(2);
  util::Rng rng(8);
  // Feed many training batches with mean 5 so the running mean converges.
  for (int i = 0; i < 200; ++i) {
    la::Matrix x = la::Matrix::RandomNormal(32, 2, 1.0, rng);
    for (double& v : x.data()) v += 5.0;
    bn.Forward(x, /*training=*/true);
  }
  la::Matrix probe(1, 2, 5.0);
  la::Matrix y = bn.Forward(probe, /*training=*/false);
  EXPECT_NEAR(y.At(0, 0), 0.0, 0.15);
  EXPECT_NEAR(y.At(0, 1), 0.0, 0.15);
}

TEST(BatchNormTest, GradientCheck) {
  BatchNorm bn(3);
  util::Rng rng(9);
  la::Matrix x = la::Matrix::RandomNormal(6, 3, 1.0, rng);
  // Looser tolerance: batch statistics couple every entry.
  CheckLayerGradients(bn, x, rng, {.epsilon = 1e-5, .tolerance = 1e-4});
}

TEST(SequentialTest, ComposesAndExposesActivations) {
  util::Rng rng(10);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 5, rng));
  model.Add(std::make_unique<Relu>());
  model.Add(std::make_unique<Dense>(5, 2, rng));
  la::Matrix x = la::Matrix::RandomNormal(4, 3, 1.0, rng);
  la::Matrix y = model.Forward(x, true);
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_EQ(model.ActivationAt(1).cols(), 5u);
  EXPECT_EQ(model.Parameters().size(), 4u);  // two Dense layers
}

TEST(SequentialTest, GradientCheckThroughStack) {
  util::Rng rng(11);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 4, rng));
  model.Add(std::make_unique<Tanh>());
  model.Add(std::make_unique<Dense>(4, 2, rng));
  la::Matrix x = la::Matrix::RandomNormal(3, 3, 1.0, rng);
  CheckLayerGradients(model, x, rng);
}

TEST(SequentialTest, ForwardUpToMatchesPrefix) {
  util::Rng rng(12);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 4, rng));
  model.Add(std::make_unique<Relu>());
  model.Add(std::make_unique<Dense>(4, 2, rng));
  la::Matrix x = la::Matrix::RandomNormal(2, 3, 1.0, rng);
  model.Forward(x, false);
  la::Matrix prefix = model.ForwardUpTo(x, 1);
  EXPECT_TRUE(prefix.AllClose(model.ActivationAt(1), 1e-12));
}

TEST(GcnLayerTest, PropagatesOverAdjacency) {
  // Two connected nodes with one-hot features: the GCN output mixes them
  // through the normalized adjacency.
  la::SparseMatrix adj = la::SparseMatrix::NormalizedAdjacency(2, {{0, 1}});
  util::Rng rng(13);
  GcnLayer gcn(&adj, 2, 2, rng);
  *gcn.Parameters()[0] = la::Matrix::Identity(2);
  *gcn.Parameters()[1] = la::Matrix(1, 2);
  la::Matrix x = la::Matrix::FromRows({{1, 0}, {0, 1}});
  la::Matrix y = gcn.Forward(x, false);
  // Â = [[0.5, 0.5], [0.5, 0.5]] here, so both rows become the average.
  EXPECT_NEAR(y.At(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(y.At(0, 1), 0.5, 1e-12);
}

TEST(GcnLayerTest, GradientCheck) {
  la::SparseMatrix adj =
      la::SparseMatrix::NormalizedAdjacency(5, {{0, 1}, {1, 2}, {3, 4}});
  util::Rng rng(14);
  GcnLayer gcn(&adj, 3, 2, rng);
  la::Matrix x = la::Matrix::RandomNormal(5, 3, 1.0, rng);
  CheckLayerGradients(gcn, x, rng);
}

TEST(GcnLayerTest, FoldedActivationGradientCheck) {
  // Gradient check with the activation folded into the layer (the
  // in-place activation sweep + the mask-on-activated-output backward).
  la::SparseMatrix adj =
      la::SparseMatrix::NormalizedAdjacency(5, {{0, 1}, {1, 2}, {3, 4}});
  for (GcnActivation activation :
       {GcnActivation::kRelu, GcnActivation::kLeakyRelu}) {
    util::Rng rng(14);
    GcnLayer gcn(&adj, 3, 2, rng, GcnLayerOptions{.activation = activation});
    la::Matrix x = la::Matrix::RandomNormal(5, 3, 1.0, rng);
    CheckLayerGradients(gcn, x, rng);
  }
}

TEST(GcnLayerTest, GoldenBits) {
  // Pins the forward output, dX, dW and db bit for bit for every folded
  // activation. 15 output columns run the gather's 8-wide, 4-wide and
  // leftover columns; the hub gives one long CSR row.
  constexpr size_t kNodes = 97;
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < kNodes; ++v) {
    edges.emplace_back(v, (v + 1) % kNodes);
    edges.emplace_back(v, (v + 11) % kNodes);
    if (v % 3 == 1) edges.emplace_back(0, v);
  }
  la::SparseMatrix adj = la::SparseMatrix::NormalizedAdjacency(kNodes, edges);
  struct Golden {
    GcnActivation activation;
    uint64_t out, dx, dw, db;
  };
  const Golden goldens[] = {
      {GcnActivation::kNone, 0x6d575bb95ce5cc8eULL, 0xc8f8d71595278b9dULL,
       0xfc01552678a2052cULL, 0x00538b1906e5ecfdULL},
      {GcnActivation::kRelu, 0xacade6905f1dcd13ULL, 0x098633c45ad3d17bULL,
       0x52b61afbe9cbe40cULL, 0xf9fec9023037e7edULL},
      {GcnActivation::kLeakyRelu, 0x45d04d07850311feULL, 0x945d2407655373e2ULL,
       0xcba2236a985b5276ULL, 0xa9efbeb80868c3d2ULL},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(static_cast<int>(golden.activation));
    util::Rng rng(2024);
    GcnLayer gcn(&adj, 13, 15, rng,
                 GcnLayerOptions{.activation = golden.activation});
    util::Rng data_rng(2025);
    *gcn.Parameters()[1] = la::Matrix::RandomNormal(1, 15, 0.5, data_rng);
    la::Matrix x = la::Matrix::RandomNormal(kNodes, 13, 1.0, data_rng);
    la::Matrix dy = la::Matrix::RandomNormal(kNodes, 15, 1.0, data_rng);
    const uint64_t out = HashBits(gcn.Forward(x, true));
    gcn.ZeroGrad();
    const uint64_t dx = HashBits(gcn.Backward(dy));
    const uint64_t dw = HashBits(*gcn.Gradients()[0]);
    const uint64_t db = HashBits(*gcn.Gradients()[1]);
    EXPECT_EQ(out, golden.out) << std::hex << "out 0x" << out;
    EXPECT_EQ(dx, golden.dx) << std::hex << "dx 0x" << dx;
    EXPECT_EQ(dw, golden.dw) << std::hex << "dw 0x" << dw;
    EXPECT_EQ(db, golden.db) << std::hex << "db 0x" << db;
  }
}

TEST(GcnLayerTest, FoldedActivationMatchesCompositeStack) {
  // GcnLayer(kRelu) must agree with GcnLayer(kNone) + a separate Relu
  // layer: same forward values and same gradients (the folded backward
  // masks on the activated output, the composite on the pre-activation —
  // equivalent for sign-compatible activations).
  la::SparseMatrix adj = la::SparseMatrix::NormalizedAdjacency(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  util::Rng rng_folded(91);
  util::Rng rng_stack(91);
  GcnLayer folded(&adj, 3, 4, rng_folded,
                  GcnLayerOptions{.activation = GcnActivation::kRelu});
  Sequential stack;
  stack.Add(std::make_unique<GcnLayer>(&adj, 3, 4, rng_stack));
  stack.Add(std::make_unique<Relu>());

  util::Rng data_rng(92);
  la::Matrix x = la::Matrix::RandomNormal(5, 3, 1.0, data_rng);
  la::Matrix dy = la::Matrix::RandomNormal(5, 4, 1.0, data_rng);

  const la::Matrix& h_folded = folded.Forward(x, true);
  const la::Matrix& h_stack = stack.Forward(x, true);
  ASSERT_EQ(h_folded.size(), h_stack.size());
  EXPECT_EQ(0, std::memcmp(h_folded.data().data(), h_stack.data().data(),
                           h_folded.size() * sizeof(double)));

  folded.ZeroGrad();
  stack.ZeroGrad();
  const la::Matrix& dx_folded = folded.Backward(dy);
  const la::Matrix& dx_stack = stack.Backward(dy);
  EXPECT_EQ(0, std::memcmp(dx_folded.data().data(), dx_stack.data().data(),
                           dx_folded.size() * sizeof(double)));
}

// `full` and `params_only` are identically constructed. One step of
// Backward on `full` and of BackwardParams on `params_only`, on the same
// (x, dy), must leave memcmp-equal parameter gradients; a following
// Forward + Backward on `params_only` must return `full`'s dL/dinput bit
// for bit (BackwardParams leaves no state behind that the full pass reads).
void ExpectParamsOnlyMatchesFull(Layer& full, Layer& params_only,
                                 const la::Matrix& x, const la::Matrix& dy) {
  full.Forward(x, true);
  full.ZeroGrad();
  const la::Matrix dx_full = full.Backward(dy);

  params_only.Forward(x, true);
  params_only.ZeroGrad();
  params_only.BackwardParams(dy);
  const std::vector<la::Matrix*> grads_full = full.Gradients();
  const std::vector<la::Matrix*> grads = params_only.Gradients();
  ASSERT_EQ(grads.size(), grads_full.size());
  ASSERT_FALSE(grads.empty());
  for (size_t g = 0; g < grads.size(); ++g) {
    ASSERT_EQ(grads[g]->size(), grads_full[g]->size());
    EXPECT_EQ(0, std::memcmp(grads[g]->data().data(),
                             grads_full[g]->data().data(),
                             grads[g]->size() * sizeof(double)))
        << "gradient " << g;
  }

  params_only.Forward(x, true);
  params_only.ZeroGrad();
  const la::Matrix& dx = params_only.Backward(dy);
  ASSERT_EQ(dx.size(), dx_full.size());
  EXPECT_EQ(0, std::memcmp(dx.data().data(), dx_full.data().data(),
                           dx.size() * sizeof(double)));
}

TEST(BackwardParamsTest, DenseMatchesFullBackward) {
  util::Rng rng_full(31);
  util::Rng rng_params(31);
  Dense full(24, 16, rng_full);
  Dense params_only(24, 16, rng_params);
  util::Rng data_rng(32);
  la::Matrix x = la::Matrix::RandomNormal(96, 24, 1.0, data_rng);
  la::Matrix dy = la::Matrix::RandomNormal(96, 16, 1.0, data_rng);
  ExpectParamsOnlyMatchesFull(full, params_only, x, dy);
}

TEST(BackwardParamsTest, GcnLayerMatchesFullBackward) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t v = 0; v < 96; ++v) {
    edges.emplace_back(v, (v + 1) % 96);
    edges.emplace_back(v, (v + 7) % 96);
  }
  la::SparseMatrix adj = la::SparseMatrix::NormalizedAdjacency(96, edges);
  for (GcnActivation activation :
       {GcnActivation::kNone, GcnActivation::kRelu,
        GcnActivation::kLeakyRelu}) {
    SCOPED_TRACE(static_cast<int>(activation));
    const GcnLayerOptions options{.activation = activation};
    util::Rng rng_full(33);
    util::Rng rng_params(33);
    GcnLayer full(&adj, 12, 8, rng_full, options);
    GcnLayer params_only(&adj, 12, 8, rng_params, options);
    util::Rng data_rng(34);
    la::Matrix x = la::Matrix::RandomNormal(96, 12, 1.0, data_rng);
    la::Matrix dy = la::Matrix::RandomNormal(96, 8, 1.0, data_rng);
    ExpectParamsOnlyMatchesFull(full, params_only, x, dy);
  }
}

TEST(BackwardParamsTest, SequentialStackMatchesFullBackward) {
  // Layers above the first still run the full Backward (their dL/dinput
  // feeds the layer below); only layer 0 drops it.
  auto make_stack = [](uint64_t seed) {
    util::Rng rng(seed);
    Sequential stack;
    stack.Add(std::make_unique<Dense>(20, 16, rng));
    stack.Add(std::make_unique<LeakyRelu>(0.2));
    stack.Add(std::make_unique<Dense>(16, 3, rng));
    return stack;
  };
  Sequential full = make_stack(35);
  Sequential params_only = make_stack(35);
  util::Rng data_rng(36);
  la::Matrix x = la::Matrix::RandomNormal(96, 20, 1.0, data_rng);
  la::Matrix dy = la::Matrix::RandomNormal(96, 3, 1.0, data_rng);
  ExpectParamsOnlyMatchesFull(full, params_only, x, dy);
}

TEST(SequentialTest, BackwardFromIntermediateLayer) {
  // BackwardFrom(i, g) must equal backprop of a full pass whose loss taps
  // layer i's activation (here layer 0 of a 2-layer stack).
  util::Rng rng(15);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 4, rng));
  model.Add(std::make_unique<Dense>(4, 2, rng));
  la::Matrix x = la::Matrix::RandomNormal(2, 3, 1.0, rng);
  model.Forward(x, true);
  la::Matrix grad_mid = la::Matrix::RandomNormal(2, 4, 1.0, rng);

  model.ZeroGrad();
  la::Matrix grad_input = model.BackwardFrom(0, grad_mid);

  // Finite differences through the prefix only.
  const double eps = 1e-6;
  for (size_t i = 0; i < x.data().size(); ++i) {
    la::Matrix xp = x;
    xp.data()[i] += eps;
    la::Matrix xm = x;
    xm.data()[i] -= eps;
    double plus = 0.0;
    double minus = 0.0;
    la::Matrix yp = model.ForwardUpTo(xp, 0);
    la::Matrix ym = model.ForwardUpTo(xm, 0);
    for (size_t j = 0; j < yp.data().size(); ++j) {
      plus += yp.data()[j] * grad_mid.data()[j];
      minus += ym.data()[j] * grad_mid.data()[j];
    }
    EXPECT_NEAR(grad_input.data()[i], (plus - minus) / (2 * eps), 1e-5);
  }
}

}  // namespace
}  // namespace gale::nn
