#include "nn/gcn_layer.h"

#include <cmath>

// gale-lint: allow(simd-include): activation sweeps use lane primitives here
#include "la/simd.h"
#include "util/check.h"
#include "util/logging.h"

namespace gale::nn {

GcnLayer::GcnLayer(const la::SparseMatrix* adjacency, size_t in_features,
                   size_t out_features, util::Rng& rng,
                   const GcnLayerOptions& options)
    : adjacency_(adjacency),
      options_(options),
      weight_(la::Matrix::GlorotUniform(in_features, out_features, rng)),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {
  GALE_CHECK(adjacency != nullptr);
  GALE_CHECK_EQ(adjacency->rows(), adjacency->cols());
  // The backward mask reads the activated output, which needs the sign of
  // H to determine the sign of Z — true for finite leaky slopes > 0 only
  // (an infinite slope makes inf·(±0) = NaN).
  GALE_CHECK(options_.leaky_slope > 0.0 && std::isfinite(options_.leaky_slope))
      << "GCN leaky slope must be finite and > 0";
}

const la::Matrix& GcnLayer::Forward(const la::Matrix& input,
                                    bool /*training*/) {
  GALE_CHECK_EQ(input.rows(), adjacency_->rows()) << "GCN needs full batch";
  GALE_CHECK_EQ(input.cols(), weight_.rows());
  input_cache_ = input;  // X, kept for dW = X^T (Â dZ)
  input_cache_.MatMulInto(weight_, &xw_cache_);  // X W
  adjacency_->MultiplyInto(xw_cache_, &out_);    // Â (X W)
  out_.AddRowBroadcast(bias_);
  switch (options_.activation) {
    case GcnActivation::kNone:
      break;
    case GcnActivation::kRelu:
      la::simd::ReluForward(out_.data().data(), out_.data().data(),
                            out_.data().size());
      break;
    case GcnActivation::kLeakyRelu:
      la::simd::LeakyReluForward(out_.data().data(), out_.data().data(),
                                 options_.leaky_slope, out_.data().size());
      break;
  }
  return out_;
}

const la::Matrix& GcnLayer::Backward(const la::Matrix& grad_output) {
  BackwardParams(grad_output);
  // dX = Â^T dZ W^T = T W^T, from the T that BackwardParams left behind.
  grad_propagated_.MatMulTransposedInto(weight_, &grad_input_);
  return grad_input_;
}

void GcnLayer::BackwardParams(const la::Matrix& grad_output) {
  GALE_CHECK_EQ(grad_output.rows(), adjacency_->rows());
  GALE_CHECK_EQ(grad_output.cols(), weight_.cols());
  // dZ = dH ⊙ σ'(Z), masked from the activated output itself: relu and
  // leaky-relu are sign-compatible (H <= 0 exactly where Z <= 0 for
  // slope > 0), so masking on H selects the same elements as masking on
  // the never-materialized pre-activation Z.
  const la::Matrix* dz = &grad_output;
  if (options_.activation != GcnActivation::kNone) {
    grad_z_.EnsureShape(grad_output.rows(), grad_output.cols());
    if (options_.activation == GcnActivation::kRelu) {
      la::simd::ReluBackward(grad_z_.data().data(),
                             grad_output.data().data(), out_.data().data(),
                             grad_z_.data().size());
    } else {
      la::simd::LeakyReluBackward(grad_z_.data().data(),
                                  grad_output.data().data(),
                                  out_.data().data(), options_.leaky_slope,
                                  grad_z_.data().size());
    }
    dz = &grad_z_;
  }
  // db = 1^T dZ. Accumulated straight into the persistent grad buffers;
  // ZeroGrad precedes every Backward in the trainers.
  dz->ColSumInto(&grad_bias_, /*accumulate=*/true);
  // One SpMM serves both remaining gradients: with T = Â dZ (Â symmetric),
  //   dW = X^T Â^T dZ = X^T T   and   dX = Â^T dZ W^T = T W^T.
  // T stays in grad_propagated_ for Backward's dX.
  adjacency_->MultiplyInto(*dz, &grad_propagated_);
  input_cache_.TransposedMatMulInto(grad_propagated_, &grad_weight_,
                                    /*accumulate=*/true);
  GALE_DCHECK_ALL_FINITE(grad_weight_.data()) << "non-finite GCN dW";
  GALE_DCHECK_ALL_FINITE(grad_bias_.data()) << "non-finite GCN db";
}

void GcnLayer::ZeroGrad() {
  grad_weight_.Fill(0.0);
  grad_bias_.Fill(0.0);
}

}  // namespace gale::nn
