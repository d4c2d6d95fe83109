#include "nn/dropout.h"

#include <algorithm>
#include <cmath>

// gale-lint: allow(simd-include): the masked activation is one lane sweep
#include "la/simd.h"
#include "util/logging.h"

namespace gale::nn {

namespace {

// Draws the keep bits of `n` elements in element order, one rng.Next() per
// element, and leaves the unused high bits of the last word 0. Element i
// is dropped when rng.Uniform() < rate, tested without the double:
// Uniform() is the 53-bit integer (Next() >> 11) times 2^-53, exactly, so
// it is below rate exactly when the integer is below rate·2^53 (a
// power-of-two scaling, exact too), i.e. below that value's ceiling. The
// local copy keeps the generator's state in registers across the loop.
void DrawKeepBits(util::Rng& rng, double rate, size_t n,
                  std::vector<uint64_t>* keep) {
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(rate * 0x1p53));
  keep->resize((n + 63) / 64);
  util::Rng local = rng;
  for (size_t w = 0; w < keep->size(); ++w) {
    const size_t bits = std::min<size_t>(64, n - 64 * w);
    uint64_t word = 0;
    for (size_t b = 0; b < bits; ++b) {
      word |= static_cast<uint64_t>((local.Next() >> 11) >= threshold) << b;
    }
    (*keep)[w] = word;
  }
  rng = local;
}

}  // namespace

LeakyReluDropout::LeakyReluDropout(double negative_slope, double rate,
                                   util::Rng& rng) noexcept
    : negative_slope_(negative_slope),
      rate_(rate),
      scale_(1.0 / (1.0 - rate)),
      rng_(rng) {
  GALE_CHECK(negative_slope > 0.0 && std::isfinite(negative_slope))
      << "LeakyReluDropout slope must be finite and > 0";
  GALE_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate " << rate;
}

const la::Matrix& LeakyReluDropout::Forward(const la::Matrix& input,
                                            bool training) {
  // Backward reads the input, so the output must not overwrite it.
  GALE_CHECK(&input != &out_) << "LeakyReluDropout input aliases its output";
  input_.Set(input);
  dropped_ = training && rate_ > 0.0;
  out_.EnsureShape(input.rows(), input.cols());
  if (!dropped_) {
    la::simd::LeakyReluForward(out_.data().data(), input.data().data(),
                               negative_slope_, input.size());
    return out_;
  }
  DrawKeepBits(rng_, rate_, input.size(), &keep_);
  la::simd::LeakyReluDropoutForward(out_.data().data(), input.data().data(),
                                    keep_.data(), negative_slope_, scale_,
                                    input.size());
  return out_;
}

// Both sweeps test the input, z <= 0, where LeakyRelu tests its output;
// activations.cc shows the two tests agree for every z.
const la::Matrix& LeakyReluDropout::Backward(const la::Matrix& grad_output) {
  const la::Matrix& input = input_.Get();
  GALE_CHECK_EQ(grad_output.rows(), input.rows());
  GALE_CHECK_EQ(grad_output.cols(), input.cols());
  grad_.EnsureShape(grad_output.rows(), grad_output.cols());
  if (!dropped_) {
    la::simd::LeakyReluBackward(grad_.data().data(), grad_output.data().data(),
                                input.data().data(), negative_slope_,
                                grad_.size());
    return grad_;
  }
  la::simd::LeakyReluDropoutBackward(
      grad_.data().data(), grad_output.data().data(), input.data().data(),
      keep_.data(), negative_slope_, scale_, grad_.size());
  return grad_;
}

Dropout::Dropout(double rate, util::Rng& rng)
    : LeakyReluDropout(1.0, rate, rng) {}

const la::Matrix& Dropout::Forward(const la::Matrix& input, bool training) {
  identity_ = !training || rate() <= 0.0;
  if (identity_) return input;
  return LeakyReluDropout::Forward(input, training);
}

const la::Matrix& Dropout::Backward(const la::Matrix& grad_output) {
  if (identity_) return grad_output;
  return LeakyReluDropout::Backward(grad_output);
}

}  // namespace gale::nn
