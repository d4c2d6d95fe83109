#include "nn/sequential.h"

#include "nn/dense.h"
#include "util/logging.h"

namespace gale::nn {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

const la::Matrix& Sequential::Forward(const la::Matrix& input,
                                      bool training) {
  activations_.clear();
  activations_.reserve(layers_.size());
  const la::Matrix* x = &input;
  for (auto& layer : layers_) {
    x = &layer->Forward(*x, training);
    activations_.push_back(x);
  }
  return *x;
}

const la::Matrix& Sequential::ForwardSplit(const la::SparseMatrix& head,
                                           const la::Matrix& tail,
                                           bool training) {
  GALE_CHECK(!layers_.empty()) << "ForwardSplit on an empty stack";
  auto* first = dynamic_cast<Dense*>(layers_[0].get());
  GALE_CHECK(first != nullptr) << "ForwardSplit needs a Dense first layer";
  activations_.clear();
  activations_.reserve(layers_.size());
  const la::Matrix* x = &first->ForwardSplit(head, tail);
  activations_.push_back(x);
  for (size_t i = 1; i < layers_.size(); ++i) {
    x = &layers_[i]->Forward(*x, training);
    activations_.push_back(x);
  }
  return *x;
}

const la::Matrix& Sequential::Backward(const la::Matrix& grad_output) {
  const la::Matrix* grad = &grad_output;
  for (size_t i = layers_.size(); i > 0; --i) {
    grad = &layers_[i - 1]->Backward(*grad);
  }
  return *grad;
}

void Sequential::BackwardParams(const la::Matrix& grad_output) {
  if (layers_.empty()) return;
  const la::Matrix* grad = &grad_output;
  for (size_t i = layers_.size(); i > 1; --i) {
    grad = &layers_[i - 1]->Backward(*grad);
  }
  layers_[0]->BackwardParams(*grad);
}

std::vector<la::Matrix*> Sequential::Parameters() {
  std::vector<la::Matrix*> params;
  for (auto& layer : layers_) {
    for (la::Matrix* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<la::Matrix*> Sequential::Gradients() {
  std::vector<la::Matrix*> grads;
  for (auto& layer : layers_) {
    for (la::Matrix* g : layer->Gradients()) grads.push_back(g);
  }
  return grads;
}

void Sequential::ZeroGrad() {
  for (auto& layer : layers_) layer->ZeroGrad();
}

const la::Matrix& Sequential::ActivationAt(size_t i) const {
  GALE_CHECK_LT(i, activations_.size()) << "no forward pass recorded";
  return *activations_[i];
}

const la::Matrix& Sequential::BackwardFrom(size_t from_layer,
                                           const la::Matrix& grad) {
  GALE_CHECK_LT(from_layer, layers_.size());
  const la::Matrix* g = &grad;
  for (size_t i = from_layer + 1; i > 0; --i) {
    g = &layers_[i - 1]->Backward(*g);
  }
  return *g;
}

const la::Matrix& Sequential::ForwardUpTo(const la::Matrix& input,
                                          size_t last_layer) {
  GALE_CHECK_LT(last_layer, layers_.size());
  const la::Matrix* x = &input;
  for (size_t i = 0; i <= last_layer; ++i) {
    x = &layers_[i]->Forward(*x, /*training=*/false);
  }
  return *x;
}

}  // namespace gale::nn
