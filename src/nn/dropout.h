// Inverted dropout: entries are zeroed with probability `rate` during
// training and scaled by 1/(1-rate) so evaluation requires no rescaling.
// The paper adds dropout layers to G and D "to prevent overfitting".
//
// LeakyReluDropout is LeakyReLU followed by dropout as one layer, and
// Dropout is that layer at slope 1, where LeakyReLU is the identity bit
// for bit (1·v is v, and the backward's two branches t·1 and t agree):
// one mask draw, one bit mask and one pair of lane sweeps serve both.

#ifndef GALE_NN_DROPOUT_H_
#define GALE_NN_DROPOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace gale::nn {

// out = keep ? lrelu(z)·scale : +0.0 in training, bitwise what
// LeakyRelu followed by Dropout computes, from the same draws of `rng` in
// the same order. The keep mask is one bit per element. Forward borrows
// its input z, which Backward reads (layer.h). In eval mode, or at rate 0,
// the layer is LeakyRelu and draws nothing.
class LeakyReluDropout : public Layer {
 public:
  // `negative_slope` must be finite and > 0, as for LeakyRelu; `rng` must
  // outlive the layer (it is owned by the enclosing model).
  LeakyReluDropout(double negative_slope, double rate,
                   util::Rng& rng) noexcept;

  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "LeakyReluDropout"; }

  double rate() const { return rate_; }

 private:
  double negative_slope_;
  double rate_;
  double scale_;  // 1 / (1 - rate)
  util::Rng& rng_;
  BorrowedInput input_;
  // Bit i % 64 of keep_[i / 64]: element i survived the last training
  // forward's draw.
  std::vector<uint64_t> keep_;
  bool dropped_ = false;  // the last forward drew keep_
  la::Matrix out_;
  la::Matrix grad_;
};

class Dropout : public LeakyReluDropout {
 public:
  Dropout(double rate, util::Rng& rng);

  // Identity in eval mode or at rate 0: returns `input` itself, and
  // Backward returns `grad_output` (the Layer buffer contract allows it).
  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "Dropout"; }

 private:
  bool identity_ = false;
};

}  // namespace gale::nn

#endif  // GALE_NN_DROPOUT_H_
