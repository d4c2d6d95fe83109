// Graph convolution layer (Kipf & Welling): H' = σ(Â H W + b), with Â the
// symmetric renormalized adjacency. Â is shared and owned by the caller
// (one copy per graph, reused across layers and models).
//
// The product associates as Â (H W): the dense feature transform runs
// first, then the SpMM (SparseMatrix::MultiplyInto), then the bias
// broadcast, then an in-place activation sweep on the output. The
// activation can also live outside the layer (activation = kNone plus a
// separate Relu layer), but folding it in here removes that layer's
// input-copy and gradient buffers.
//
// Full-batch semantics: Forward expects one row per graph node. Because Â
// is symmetric, the backward pass uses Â again in place of Â^T.

#ifndef GALE_NN_GCN_LAYER_H_
#define GALE_NN_GCN_LAYER_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/sparse_matrix.h"
#include "nn/layer.h"
#include "util/rng.h"

namespace gale::nn {

// Activation folded into the layer. Only the sign-compatible
// piecewise-linear activations are foldable: their backward mask reads
// the activated output directly (H <= 0 exactly where Z <= 0), so the
// layer never materializes the pre-activation matrix.
enum class GcnActivation {
  kNone,
  kRelu,
  kLeakyRelu,
};

struct GcnLayerOptions {
  GcnActivation activation = GcnActivation::kNone;
  double leaky_slope = 0.2;  // read only for kLeakyRelu; finite, > 0
};

class GcnLayer : public Layer {
 public:
  // `adjacency` must outlive the layer.
  GcnLayer(const la::SparseMatrix* adjacency, size_t in_features,
           size_t out_features, util::Rng& rng,
           const GcnLayerOptions& options = {});

  const la::Matrix& Forward(const la::Matrix& input, bool training) override;
  const la::Matrix& Backward(const la::Matrix& grad_output) override;
  // Skips dL/dinput = (Â dZ) Wᵀ; the mask, db, Â dZ and dW still run.
  void BackwardParams(const la::Matrix& grad_output) override;

  std::vector<la::Matrix*> Parameters() override { return {&weight_, &bias_}; }
  std::vector<la::Matrix*> Gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  void ZeroGrad() override;

  std::string name() const override { return "GcnLayer"; }

  const la::Matrix& weight() const { return weight_; }

 private:
  const la::SparseMatrix* adjacency_;  // not owned
  GcnLayerOptions options_;
  la::Matrix weight_;                  // in x out
  la::Matrix bias_;                    // 1 x out
  la::Matrix grad_weight_;
  la::Matrix grad_bias_;
  la::Matrix input_cache_;   // X from the last forward (for dW)
  la::Matrix xw_cache_;      // X W scratch
  la::Matrix out_;           // persistent forward output (activated)
  la::Matrix grad_z_;        // activation-masked dZ scratch
  la::Matrix grad_propagated_;  // Â dZ scratch (shared by dW and dX)
  la::Matrix grad_input_;    // persistent backward output
};

}  // namespace gale::nn

#endif  // GALE_NN_GCN_LAYER_H_
