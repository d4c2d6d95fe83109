#include "nn/activations.h"

#include <cmath>

// gale-lint: allow(simd-include): fused loops use lane primitives here
#include "la/simd.h"
#include "util/logging.h"

namespace gale::nn {

// The piecewise-linear activations (Relu, LeakyRelu) and all the Backward
// mask sweeps run on the la::simd substrate: every element is independent
// and the vector variants reproduce the scalar expression tree bit for
// bit (see la/simd.h). Sigmoid and Tanh Forward stay scalar — libm
// exp/tanh have no vector counterpart with guaranteed identical rounding.
//
// The Relu/LeakyRelu Backward masks test the cached output where the
// scalar rule tests the input (in <= 0). For LeakyRelu the two agree on
// every input: in > 0 gives out = in > 0; ±0, negatives and -inf give
// slope·in <= 0 for a finite slope > 0 (an underflow to -0.0 included);
// NaN gives out = NaN, and NaN <= 0 is false either way. A slope of 0 or
// +inf is refused: 0·(-inf) and inf·(±0) are NaN, which would flip the
// mask. Relu agrees everywhere but at NaN: Forward maps a NaN input to
// +0.0, so Backward zeroes its gradient, as for the constant branch that
// produced the output (nn_layers_test pins this).

const la::Matrix& Relu::Forward(const la::Matrix& input, bool /*training*/) {
  out_.EnsureShape(input.rows(), input.cols());
  la::simd::ReluForward(out_.data().data(), input.data().data(),
                        input.data().size());
  return out_;
}

const la::Matrix& Relu::Backward(const la::Matrix& grad_output) {
  GALE_CHECK_EQ(grad_output.rows(), out_.rows());
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  la::simd::ReluBackward(grad_.data().data(), grad_output.data().data(),
                         out_.data().data(), grad_.data().size());
  return grad_;
}

LeakyRelu::LeakyRelu(double negative_slope) noexcept
    : negative_slope_(negative_slope) {
  GALE_CHECK(negative_slope > 0.0 && std::isfinite(negative_slope))
      << "LeakyRelu slope must be finite and > 0";
}

const la::Matrix& LeakyRelu::Forward(const la::Matrix& input,
                                     bool /*training*/) {
  out_.EnsureShape(input.rows(), input.cols());
  la::simd::LeakyReluForward(out_.data().data(), input.data().data(),
                             negative_slope_, input.data().size());
  return out_;
}

const la::Matrix& LeakyRelu::Backward(const la::Matrix& grad_output) {
  GALE_CHECK_EQ(grad_output.rows(), out_.rows());
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  la::simd::LeakyReluBackward(grad_.data().data(), grad_output.data().data(),
                              out_.data().data(), negative_slope_,
                              grad_.data().size());
  return grad_;
}

const la::Matrix& Sigmoid::Forward(const la::Matrix& input,
                                   bool /*training*/) {
  output_cache_ = input;
  output_cache_.Apply([](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  return output_cache_;
}

const la::Matrix& Sigmoid::Backward(const la::Matrix& grad_output) {
  GALE_CHECK_EQ(grad_output.rows(), output_cache_.rows());
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  la::simd::SigmoidBackward(grad_.data().data(), grad_output.data().data(),
                            output_cache_.data().data(), grad_.data().size());
  return grad_;
}

const la::Matrix& Tanh::Forward(const la::Matrix& input, bool /*training*/) {
  output_cache_ = input;
  output_cache_.Apply([](double v) { return std::tanh(v); });
  return output_cache_;
}

const la::Matrix& Tanh::Backward(const la::Matrix& grad_output) {
  GALE_CHECK_EQ(grad_output.rows(), output_cache_.rows());
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  la::simd::TanhBackward(grad_.data().data(), grad_output.data().data(),
                         output_cache_.data().data(), grad_.data().size());
  return grad_;
}

}  // namespace gale::nn
