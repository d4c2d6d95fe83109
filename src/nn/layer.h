// Layer interface for the GALE neural-network stack.
//
// Forward/backward contracts:
//  * Forward(x, training) consumes a batch (rows = samples) and caches
//    whatever it needs for the backward pass.
//  * Backward(grad_output) consumes dL/d(output), accumulates dL/d(params)
//    into the layer's gradient buffers, and returns dL/d(input).
//  * BackwardParams(grad_output) accumulates the same dL/d(params) and
//    returns nothing: it skips dL/d(input). Trainers call it on a stack
//    whose input is data (Sequential runs it on the first layer only), so
//    the input-gradient GEMM nobody reads is never computed. Backward and
//    BackwardParams leave bitwise-identical parameter gradients.
//  * Parameters() / Gradients() expose aligned lists of tensors so an
//    optimizer (nn::Adam) can step them; ZeroGrad() clears accumulations.
//
// Threading contract: the stack is eager — no graph capture, no async
// dispatch — and layer objects are NOT thread-safe (Forward caches state
// for Backward). Parallelism lives one level down: the la:: kernels the
// layers call (MatMul and friends, SpMM) run on util::ParallelFor with
// deterministic static partitioning, so training is multi-threaded under
// GALE_NUM_THREADS > 1 while remaining bitwise identical to the serial
// run. Drive a given model from one thread; distinct models on distinct
// threads are fine as long as they use distinct Rng instances.
//
// Buffer contract: Forward/Backward return references into buffers the
// layer owns (persistent activation/gradient storage reshaped via
// la::Matrix::EnsureShape, so fixed-shape training steps are
// allocation-free after the first — see DESIGN.md §8). A returned
// reference is valid until the next Forward/Backward call on the same
// layer; callers that need the values longer must copy. Layers that are
// identity in the current mode (e.g. Dropout in eval) may return `input`
// itself.
//
// Inputs are borrowed, not copied: a layer whose backward pass reads its
// input (Dense, LeakyReluDropout) keeps a pointer to the matrix Forward
// was given. So the input of a Forward — in a Sequential, the stack input
// and each layer's output, which the layer above borrows — must outlive
// the following Backward or BackwardParams, unchanged: neither
// reallocated, reshaped nor overwritten in between. A temporary passed to
// Forward and then backpropagated breaks this.

#ifndef GALE_NN_LAYER_H_
#define GALE_NN_LAYER_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "util/check.h"
#include "util/logging.h"

namespace gale::nn {

// A layer's borrowed input (the buffer contract above): Forward sets it,
// the backward passes get it. GALE_DEBUG_CHECKS builds verify that the
// matrix still has the buffer and shape it had at Forward.
class BorrowedInput {
 public:
  void Set(const la::Matrix& m) {
    matrix_ = &m;
    data_ = m.data().data();
    rows_ = m.rows();
    cols_ = m.cols();
  }

  const la::Matrix& Get() const {
    GALE_CHECK(matrix_ != nullptr) << "Backward before Forward";
    GALE_DCHECK(matrix_->data().data() == data_ && matrix_->rows() == rows_ &&
                matrix_->cols() == cols_)
        << "a layer's borrowed input changed between Forward and Backward";
    return *matrix_;
  }

 private:
  const la::Matrix* matrix_ = nullptr;
  const double* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Runs the layer on `input`; `training` toggles dropout/batch-norm modes.
  // The result lives in layer-owned storage (see the buffer contract
  // above); `input` must not alias that storage.
  virtual const la::Matrix& Forward(const la::Matrix& input,
                                    bool training) = 0;

  // Backpropagates `grad_output` (dL/doutput of the most recent Forward).
  // Returns dL/dinput, in layer-owned storage. Must be called at most once
  // per Forward.
  virtual const la::Matrix& Backward(const la::Matrix& grad_output) = 0;

  // Backward without dL/dinput: accumulates dL/d(params) only. Called in
  // place of Backward (at most once per Forward). Layers whose input
  // gradient is cheap or that have no parameters keep this default.
  virtual void BackwardParams(const la::Matrix& grad_output) {
    Backward(grad_output);
  }

  // Trainable tensors and their gradient buffers, index-aligned. Layers
  // without parameters return empty lists.
  virtual std::vector<la::Matrix*> Parameters() { return {}; }
  virtual std::vector<la::Matrix*> Gradients() { return {}; }

  // Clears accumulated gradients.
  virtual void ZeroGrad() {}

  virtual std::string name() const = 0;
};

}  // namespace gale::nn

#endif  // GALE_NN_LAYER_H_
