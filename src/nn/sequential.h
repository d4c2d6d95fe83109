// Sequential container of layers, plus a tap on any intermediate layer's
// activations — the SGAN needs the discriminator's penultimate-layer
// embeddings h_n(x_v) for feature matching and for the query selector.

#ifndef GALE_NN_SEQUENTIAL_H_
#define GALE_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "nn/layer.h"

namespace gale::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  // Non-copyable (owns layers), movable.
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  // Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  // Forward on the batch [head; tail] whose first layer is a Dense: it
  // runs Dense::ForwardSplit, and every later layer sees the full
  // activation as Forward would. Bitwise equal to Forward on the stacked
  // dense batch; `head` must outlive the following BackwardParams.
  const la::Matrix& ForwardSplit(const la::SparseMatrix& head,
                                 const la::Matrix& tail, bool training);
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  // Full Backward through layers n-1..1, then BackwardParams on layer 0:
  // the parameter gradients of Backward without dL/d(stack input).
  void BackwardParams(const la::Matrix& grad_output) override;

  std::vector<la::Matrix*> Parameters() override;
  std::vector<la::Matrix*> Gradients() override;
  void ZeroGrad() override;

  std::string name() const override { return "Sequential"; }

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  // Output of layer `i` (0-based) during the last Forward call. Useful as
  // the "intermediate layer" h_n of the paper's discriminator. Refers to
  // the layer's own activation buffer: valid until the next forward pass
  // through that layer (Forward or ForwardUpTo); copy to keep longer.
  const la::Matrix& ActivationAt(size_t i) const;

  // Runs a forward pass only up to and including layer `i` (inclusive),
  // in eval mode, without touching the backward caches' invariants beyond
  // what Forward does. Overwrites the prefix layers' activation buffers.
  const la::Matrix& ForwardUpTo(const la::Matrix& input, size_t last_layer);

  // Backpropagates starting at layer `from_layer` (inclusive) down to the
  // input: `grad` is dL/d(output of layer from_layer). Used when the loss
  // taps an intermediate activation (e.g. feature matching on the
  // discriminator's penultimate layer). Requires a prior full Forward.
  const la::Matrix& BackwardFrom(size_t from_layer, const la::Matrix& grad);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  // Per layer, from the last Forward: borrowed pointers into each layer's
  // own activation buffer (layers own their outputs; see layer.h). Heap
  // layer objects keep these stable across Sequential moves.
  std::vector<const la::Matrix*> activations_;
};

}  // namespace gale::nn

#endif  // GALE_NN_SEQUENTIAL_H_
