#include "nn/dense.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/logging.h"

namespace gale::nn {

Dense::Dense(size_t in_features, size_t out_features, util::Rng& rng)
    : weight_(la::Matrix::GlorotUniform(in_features, out_features, rng)),
      bias_(1, out_features),
      grad_weight_(in_features, out_features),
      grad_bias_(1, out_features) {}

Dense::Dense(la::Matrix weight, la::Matrix bias)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      grad_weight_(weight_.rows(), weight_.cols()),
      grad_bias_(1, bias_.cols()) {
  GALE_CHECK_EQ(bias_.rows(), 1u);
  GALE_CHECK_EQ(bias_.cols(), weight_.cols());
}

const la::Matrix& Dense::Forward(const la::Matrix& input, bool /*training*/) {
  GALE_CHECK_EQ(input.cols(), weight_.rows()) << "Dense input width";
  GALE_DCHECK_ALL_FINITE(input.data()) << "non-finite Dense input";
  head_ = nullptr;
  input_.Set(input);
  input.MatMulInto(weight_, &out_);
  out_.AddRowBroadcast(bias_);
  return out_;
}

const la::Matrix& Dense::ForwardSplit(const la::SparseMatrix& head,
                                      const la::Matrix& tail) {
  GALE_CHECK_EQ(head.cols(), weight_.rows()) << "Dense head width";
  GALE_CHECK_EQ(tail.cols(), weight_.rows()) << "Dense tail width";
  GALE_DCHECK_EQ(head.rows() % 4, 0u) << "Dense head splits a row group";
  GALE_DCHECK_ALL_FINITE(tail.data()) << "non-finite Dense input";
  head_ = &head;
  input_.Set(tail);
  const size_t h = head.rows();
  out_.EnsureShape(h + tail.rows(), weight_.cols());
  head.GroupedMultiplyInto(weight_, &out_);
  tail.MatMulInto(weight_, &tail_out_);
  std::copy(tail_out_.data().begin(), tail_out_.data().end(),
            out_.RowPtr(h));
  out_.AddRowBroadcast(bias_);
  return out_;
}

const la::Matrix& Dense::Backward(const la::Matrix& grad_output) {
  BackwardParams(grad_output);
  grad_output.MatMulTransposedInto(weight_, &grad_input_);
  return grad_input_;
}

void Dense::BackwardParams(const la::Matrix& grad_output) {
  const la::Matrix& input = input_.Get();
  const size_t h = head_ == nullptr ? 0 : head_->rows();
  GALE_CHECK_EQ(grad_output.rows(), h + input.rows());
  GALE_CHECK_EQ(grad_output.cols(), weight_.cols());
  // Accumulates straight into the persistent grad buffers; with the
  // buffers zeroed (ZeroGrad precedes every Backward in the trainers)
  // this is bitwise identical to the former `grad += temporary` form.
  // After a split forward the head's row groups come first, then the
  // tail's: the dense kernel's ascending row order on the stacked batch.
  if (head_ == nullptr) {
    input.TransposedMatMulInto(grad_output, &grad_weight_,
                               /*accumulate=*/true);
  } else {
    head_->GroupedTransposedMultiplyInto(grad_output, &grad_weight_);
    tail_grad_.EnsureShape(input.rows(), grad_output.cols());
    std::copy(grad_output.RowPtr(h), grad_output.RowPtr(grad_output.rows()),
              tail_grad_.RowPtr(0));
    input.TransposedMatMulInto(tail_grad_, &grad_weight_,
                               /*accumulate=*/true);
  }
  grad_output.ColSumInto(&grad_bias_, /*accumulate=*/true);
  GALE_DCHECK_ALL_FINITE(grad_weight_.data()) << "non-finite Dense dW";
  GALE_DCHECK_ALL_FINITE(grad_bias_.data()) << "non-finite Dense db";
}

void Dense::ZeroGrad() {
  grad_weight_.Fill(0.0);
  grad_bias_.Fill(0.0);
}

}  // namespace gale::nn
