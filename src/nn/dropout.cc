#include "nn/dropout.h"

#include "util/logging.h"

namespace gale::nn {

Dropout::Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(rng) {
  GALE_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate " << rate;
}

const la::Matrix& Dropout::Forward(const la::Matrix& input, bool training) {
  last_training_ = training;
  // Identity in eval mode: hand the caller's matrix straight back (the
  // Layer buffer contract allows this).
  if (!training || rate_ <= 0.0) return input;
  const double scale = 1.0 / (1.0 - rate_);
  mask_.EnsureShape(input.rows(), input.cols());
  out_.EnsureShape(input.rows(), input.cols());
  const double* in = input.data().data();
  double* mask = mask_.data().data();
  double* out = out_.data().data();
  // Branch-free select. A dropped element is assigned +0.0 rather than
  // multiplied by zero, so its sign never leaks from a negative input.
  for (size_t i = 0; i < input.size(); ++i) {
    const bool drop = rng_.Uniform() < rate_;
    mask[i] = drop ? 0.0 : scale;
    out[i] = drop ? 0.0 : in[i] * scale;
  }
  return out_;
}

const la::Matrix& Dropout::Backward(const la::Matrix& grad_output) {
  if (!last_training_ || rate_ <= 0.0) return grad_output;
  grad_ = grad_output;
  grad_.ElementwiseMul(mask_);
  return grad_;
}

}  // namespace gale::nn
