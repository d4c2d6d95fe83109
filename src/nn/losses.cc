#include "nn/losses.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/logging.h"

namespace gale::nn {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

la::Matrix Softmax(const la::Matrix& logits) {
  la::Matrix probs;
  SoftmaxInto(logits, &probs);
  return probs;
}

void SoftmaxInto(const la::Matrix& logits, la::Matrix* probs) {
  GALE_CHECK(probs != &logits) << "SoftmaxInto aliased output";
  probs->EnsureShape(logits.rows(), logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const double* in = logits.RowPtr(r);
    double* out = probs->RowPtr(r);
    double max_logit = in[0];
    for (size_t c = 1; c < logits.cols(); ++c) {
      max_logit = std::max(max_logit, in[c]);
    }
    double denom = 0.0;
    for (size_t c = 0; c < logits.cols(); ++c) {
      out[c] = std::exp(in[c] - max_logit);
      denom += out[c];
    }
    for (size_t c = 0; c < logits.cols(); ++c) out[c] /= denom;
    GALE_DCHECK(::gale::util::check_internal::OnSimplex(out, logits.cols()))
        << "softmax row " << r << " off the probability simplex";
  }
}

double SoftmaxCrossEntropy(const la::Matrix& logits,
                           const std::vector<int>& labels,
                           const std::vector<uint8_t>& mask,
                           la::Matrix* grad,
                           const std::vector<double>& row_weights,
                           la::Workspace* ws) {
  GALE_CHECK_EQ(logits.rows(), labels.size());
  GALE_CHECK_EQ(logits.rows(), mask.size());
  GALE_CHECK(grad != nullptr);
  const bool weighted = !row_weights.empty();
  if (weighted) {
    GALE_CHECK_EQ(row_weights.size(), logits.rows());
  }
  // Masked-out rows must keep zero gradient, so the full fill matters.
  grad->EnsureShape(logits.rows(), logits.cols());
  grad->Fill(0.0);

  la::BorrowedMatrix probs_buf(ws, logits.rows(), logits.cols());
  const la::Matrix& probs = probs_buf.mat();
  SoftmaxInto(logits, &probs_buf.mat());
  double active = 0.0;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r] != 0) active += weighted ? row_weights[r] : 1.0;
  }
  if (active <= 0.0) return 0.0;

  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    if (mask[r] == 0) continue;
    const double w = weighted ? row_weights[r] : 1.0;
    const int label = labels[r];
    GALE_CHECK(label >= 0 && static_cast<size_t>(label) < logits.cols());
    loss -= w * std::log(probs.At(r, label) + kEps);
    const double* p = probs.RowPtr(r);
    double* g = grad->RowPtr(r);
    for (size_t c = 0; c < logits.cols(); ++c) {
      g[c] = w * (p[c] - (static_cast<int>(c) == label ? 1.0 : 0.0));
    }
  }
  const double scale = 1.0 / active;
  *grad *= scale;
  GALE_DCHECK_ALL_FINITE(grad->data()) << "non-finite softmax-CE gradient";
  GALE_DCHECK_FINITE(loss * scale);
  return loss * scale;
}

std::vector<double> BalancedRowWeights(const std::vector<int>& labels,
                                       const std::vector<uint8_t>& mask,
                                       double cap) {
  GALE_CHECK_EQ(labels.size(), mask.size());
  size_t counts[2] = {0, 0};
  size_t active = 0;
  for (size_t r = 0; r < labels.size(); ++r) {
    if (mask[r] == 0) continue;
    if (labels[r] == 0 || labels[r] == 1) {
      counts[labels[r]] += 1;
      ++active;
    }
  }
  if (counts[0] == 0 || counts[1] == 0) return {};
  const double w[2] = {
      std::min(cap, static_cast<double>(active) / (2.0 * counts[0])),
      std::min(cap, static_cast<double>(active) / (2.0 * counts[1]))};
  std::vector<double> weights(labels.size(), 0.0);
  for (size_t r = 0; r < labels.size(); ++r) {
    if (mask[r] != 0 && (labels[r] == 0 || labels[r] == 1)) {
      weights[r] = w[labels[r]];
    }
  }
  return weights;
}

double ConditionalCrossEntropy(const la::Matrix& logits,
                               size_t num_real_classes,
                               const std::vector<int>& labels,
                               const std::vector<uint8_t>& mask,
                               la::Matrix* grad,
                               const std::vector<double>& row_weights) {
  GALE_CHECK_EQ(logits.rows(), labels.size());
  GALE_CHECK_EQ(logits.rows(), mask.size());
  GALE_CHECK_GE(logits.cols(), num_real_classes);
  GALE_CHECK_GT(num_real_classes, 0u);
  GALE_CHECK(grad != nullptr);
  const bool weighted = !row_weights.empty();
  if (weighted) {
    GALE_CHECK_EQ(row_weights.size(), logits.rows());
  }
  // Masked-out rows and the synthetic logits keep zero gradient.
  grad->EnsureShape(logits.rows(), logits.cols());
  grad->Fill(0.0);

  double active = 0.0;
  for (size_t r = 0; r < mask.size(); ++r) {
    if (mask[r] != 0) active += weighted ? row_weights[r] : 1.0;
  }
  if (active <= 0.0) return 0.0;

  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    if (mask[r] == 0) continue;
    const double w = weighted ? row_weights[r] : 1.0;
    const int label = labels[r];
    GALE_CHECK(label >= 0 && static_cast<size_t>(label) < num_real_classes);
    // Softmax over the restricted class set.
    const double* in = logits.RowPtr(r);
    double max_logit = in[0];
    for (size_t c = 1; c < num_real_classes; ++c) {
      max_logit = std::max(max_logit, in[c]);
    }
    // The row's gradient entries hold the exponentials until q replaces
    // them: one exp per class.
    double* g = grad->RowPtr(r);
    double denom = 0.0;
    for (size_t c = 0; c < num_real_classes; ++c) {
      g[c] = std::exp(in[c] - max_logit);
      denom += g[c];
    }
    const double log_p =
        in[label] - max_logit - std::log(std::max(denom, kEps));
    loss -= w * log_p;
    for (size_t c = 0; c < num_real_classes; ++c) {
      const double q = g[c] / denom;
      g[c] = w * (q - (static_cast<int>(c) == label ? 1.0 : 0.0));
    }
  }
  const double scale = 1.0 / active;
  *grad *= scale;
  GALE_DCHECK_ALL_FINITE(grad->data())
      << "non-finite conditional-CE gradient";
  GALE_DCHECK_FINITE(loss * scale);
  return loss * scale;
}

double GanUnsupervisedLoss(const la::Matrix& logits,
                           const std::vector<uint8_t>& is_fake,
                           la::Matrix* grad, la::Workspace* ws) {
  GALE_CHECK_EQ(logits.rows(), is_fake.size());
  GALE_CHECK_GE(logits.cols(), 2u);
  GALE_CHECK(grad != nullptr);
  // Every entry is assigned below, so no zero-fill.
  grad->EnsureShape(logits.rows(), logits.cols());
  if (logits.rows() == 0) return 0.0;

  const size_t fake_class = logits.cols() - 1;
  la::BorrowedMatrix probs_buf(ws, logits.rows(), logits.cols());
  const la::Matrix& probs = probs_buf.mat();
  SoftmaxInto(logits, &probs_buf.mat());
  double loss = 0.0;
  for (size_t r = 0; r < logits.rows(); ++r) {
    const double* p = probs.RowPtr(r);
    double* g = grad->RowPtr(r);
    const double p_fake = p[fake_class];
    if (is_fake[r]) {
      // -log p_fake: dL/dlogit_c = p_c - 1{c == fake}.
      loss -= std::log(p_fake + kEps);
      for (size_t c = 0; c < logits.cols(); ++c) {
        g[c] = p[c] - (c == fake_class ? 1.0 : 0.0);
      }
    } else {
      // -log(1 - p_fake): dL/dlogit_c =
      //   p_fake/(1-p_fake) * p_c        for real classes c,
      //   p_fake/(1-p_fake) * (p_f - 1)  for the fake class
      // which simplifies to s*(p_c - 1{c==fake}) with s = p_f/(1-p_f)...
      // derived from d(-log(1-p_f))/dlogit_c = (1/(1-p_f)) * dp_f/dlogit_c
      // and dp_f/dlogit_c = p_f(1{c==f} - p_c) * -1 ... we compute directly:
      const double one_minus = std::max(1.0 - p_fake, kEps);
      loss -= std::log(one_minus);
      for (size_t c = 0; c < logits.cols(); ++c) {
        // dp_fake/dlogit_c = p_fake * (1{c==fake} - p_c)
        const double dp_fake =
            p_fake * ((c == fake_class ? 1.0 : 0.0) - p[c]);
        g[c] = dp_fake / one_minus;
      }
    }
  }
  const double scale = 1.0 / static_cast<double>(logits.rows());
  *grad *= scale;
  GALE_DCHECK_ALL_FINITE(grad->data()) << "non-finite GAN-loss gradient";
  GALE_DCHECK_FINITE(loss * scale);
  return loss * scale;
}

double FeatureMatchingLoss(const la::Matrix& real_features,
                           const la::Matrix& fake_features,
                           la::Matrix* grad_fake, la::Workspace* ws) {
  GALE_CHECK_EQ(real_features.cols(), fake_features.cols());
  GALE_CHECK(grad_fake != nullptr);
  GALE_CHECK_GT(real_features.rows(), 0u);
  GALE_CHECK_GT(fake_features.rows(), 0u);

  const size_t d = real_features.cols();
  la::BorrowedMatrix real_mean(ws, 1, d);
  la::BorrowedMatrix fake_mean(ws, 1, d);
  la::BorrowedMatrix diff(ws, 1, d);
  real_features.ColMeanInto(&real_mean.mat());
  fake_features.ColMeanInto(&fake_mean.mat());

  double loss = 0.0;
  fake_mean.mat().SubInto(real_mean.mat(), &diff.mat());
  const double* diff_row = diff.mat().RowPtr(0);
  for (size_t c = 0; c < d; ++c) loss += diff_row[c] * diff_row[c];

  // d/dfake_{r,c} ||fake_mean - real_mean||^2 = 2 * diff_c / n_fake.
  // Every entry is assigned, so no zero-fill.
  grad_fake->EnsureShape(fake_features.rows(), d);
  const double scale = 2.0 / static_cast<double>(fake_features.rows());
  for (size_t r = 0; r < fake_features.rows(); ++r) {
    double* g = grad_fake->RowPtr(r);
    for (size_t c = 0; c < d; ++c) g[c] = scale * diff_row[c];
  }
  return loss;
}

double BinaryCrossEntropy(const std::vector<double>& probs,
                          const std::vector<double>& targets,
                          std::vector<double>* grad_probs) {
  GALE_CHECK_EQ(probs.size(), targets.size());
  GALE_CHECK(grad_probs != nullptr);
  grad_probs->assign(probs.size(), 0.0);
  if (probs.empty()) return 0.0;

  double loss = 0.0;
  const double scale = 1.0 / static_cast<double>(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    const double p = std::clamp(probs[i], kEps, 1.0 - kEps);
    const double y = targets[i];
    loss -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
    (*grad_probs)[i] = scale * (-(y / p) + (1.0 - y) / (1.0 - p));
  }
  return loss * scale;
}

}  // namespace gale::nn
