// Elementwise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.

#ifndef GALE_NN_ACTIVATIONS_H_
#define GALE_NN_ACTIVATIONS_H_

#include <string>

#include "la/matrix.h"
#include "nn/layer.h"

namespace gale::nn {

// Relu and LeakyRelu keep no copy of their input: Backward masks on the
// layer's own output, which is <= 0 exactly where the input was, except
// that Relu maps a NaN input to 0 and so passes it no gradient.
class Relu : public Layer {
 public:
  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "Relu"; }

 private:
  la::Matrix out_;
  la::Matrix grad_;
};

class LeakyRelu : public Layer {
 public:
  // negative_slope must be finite and > 0: Backward's output mask relies
  // on it.
  explicit LeakyRelu(double negative_slope = 0.2) noexcept;

  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "LeakyRelu"; }

 private:
  double negative_slope_;
  la::Matrix out_;
  la::Matrix grad_;
};

class Sigmoid : public Layer {
 public:
  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  la::Matrix output_cache_;
  la::Matrix grad_;
};

class Tanh : public Layer {
 public:
  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  la::Matrix output_cache_;
  la::Matrix grad_;
};

}  // namespace gale::nn

#endif  // GALE_NN_ACTIVATIONS_H_
