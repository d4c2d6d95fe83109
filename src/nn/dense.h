// Fully connected layer: y = x W + b, Glorot-uniform initialized.

#ifndef GALE_NN_DENSE_H_
#define GALE_NN_DENSE_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace gale::nn {

class Dense : public Layer {
 public:
  Dense(size_t in_features, size_t out_features, util::Rng& rng);

  // Wraps existing parameters (e.g. weights thawed from a serving
  // snapshot). `weight` is in x out, `bias` 1 x out.
  Dense(la::Matrix weight, la::Matrix bias);

  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  // Skips dL/dinput = grad_output · Wᵀ.
  void BackwardParams(const la::Matrix& grad_output) override;

  std::vector<la::Matrix*> Parameters() override { return {&weight_, &bias_}; }
  std::vector<la::Matrix*> Gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  void ZeroGrad() override;

  std::string name() const override { return "Dense"; }

  size_t in_features() const { return weight_.rows(); }
  size_t out_features() const { return weight_.cols(); }
  const la::Matrix& weight() const { return weight_; }
  const la::Matrix& bias() const { return bias_; }

 private:
  la::Matrix weight_;       // in x out
  la::Matrix bias_;         // 1 x out
  la::Matrix grad_weight_;  // in x out
  la::Matrix grad_bias_;    // 1 x out
  la::Matrix input_cache_;  // last forward input
  la::Matrix out_;          // persistent forward output
  la::Matrix grad_input_;   // persistent backward output
};

}  // namespace gale::nn

#endif  // GALE_NN_DENSE_H_
