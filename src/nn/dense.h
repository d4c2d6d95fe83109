// Fully connected layer: y = x W + b, Glorot-uniform initialized.

#ifndef GALE_NN_DENSE_H_
#define GALE_NN_DENSE_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/sparse_matrix.h"
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
  // Forward on the batch [head; tail] with the head compressed: rows
  // [0, head.rows()) are head·W by the grouped sparse product and the
  // rest tail·W by the dense one, so the output is bitwise that of
  // Forward on the stacked dense batch (finite weights). `head` is
  // borrowed until the next Forward: the following BackwardParams
  // computes dW as the grouped headᵀ·dZ_head, then adds tailᵀ·dZ_tail.
  // For dW to keep the stacked batch's bits, head.rows() must be a
  // multiple of 4, so no k-group of the dense Aᵀ·B straddles the split.
  // Both forwards borrow their dense input (`input`, `tail`) for the
  // backward passes' dW (layer.h).
  const la::Matrix& ForwardSplit(const la::SparseMatrix& head,
                                 const la::Matrix& tail);
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
  BorrowedInput input_;     // last forward input (the tail after a split)
  la::Matrix out_;          // persistent forward output
  la::Matrix grad_input_;   // persistent backward output
  // The last forward's compressed head, or null after a plain Forward.
  const la::SparseMatrix* head_ = nullptr;
  la::Matrix tail_out_;   // tail·W before it joins out_
  la::Matrix tail_grad_;  // dZ's tail rows, for tailᵀ·dZ_tail
};

}  // namespace gale::nn

#endif  // GALE_NN_DENSE_H_
