#include "nn/dropout.h"

#include <cmath>
#include <cstdint>

// gale-lint: allow(simd-include): the backward mask is one lane sweep
#include "la/simd.h"
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
  // rng.Uniform() < rate_ without the double: Uniform() is the 53-bit
  // integer (Next() >> 11) times 2^-53, exactly, so it is below rate_
  // exactly when the integer is below rate_·2^53 (a power-of-two scaling,
  // exact too), i.e. below that value's ceiling. Same draws, same mask,
  // same stream; the local copy keeps the generator's state in registers
  // across the loop.
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(rate_ * 0x1p53));
  util::Rng rng = rng_;
  // Branch-free select. A dropped element is assigned +0.0 rather than
  // multiplied by zero, so its sign never leaks from a negative input.
  for (size_t i = 0; i < input.size(); ++i) {
    const bool drop = (rng.Next() >> 11) < threshold;
    mask[i] = drop ? 0.0 : scale;
    out[i] = drop ? 0.0 : in[i] * scale;
  }
  rng_ = rng;
  return out_;
}

const la::Matrix& Dropout::Backward(const la::Matrix& grad_output) {
  if (!last_training_ || rate_ <= 0.0) return grad_output;
  GALE_CHECK(grad_output.rows() == mask_.rows() &&
             grad_output.cols() == mask_.cols())
      << "Dropout gradient shape";
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  la::simd::Mul(grad_.data().data(), grad_output.data().data(),
                mask_.data().data(), grad_.size());
  return grad_;
}

}  // namespace gale::nn
