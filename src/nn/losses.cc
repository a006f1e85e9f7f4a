#include "nn/losses.h"

#include <algorithm>
#include <cmath>

#include "nn/activations.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace p3gm {
namespace nn {

namespace {

// Minimum rows per worker for BceWithLogitsLoss. Each element costs an
// exp and a log1p, so a DP-SGD lot of a few hundred 784-wide rows splits
// over the pool while small batches run inline.
constexpr std::size_t kLossRowGrain = 16;

}  // namespace

LossResult MseLoss(const linalg::Matrix& pred, const linalg::Matrix& target,
                   bool mean) {
  P3GM_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols());
  const std::size_t b = pred.rows();
  const double scale = mean ? 1.0 / static_cast<double>(b) : 1.0;
  LossResult out;
  out.grad = linalg::Matrix(pred.rows(), pred.cols());
  out.per_example.assign(b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    const double* p = pred.row_data(i);
    const double* t = target.row_data(i);
    double* g = out.grad.row_data(i);
    double ls = 0.0;
    for (std::size_t j = 0; j < pred.cols(); ++j) {
      const double diff = p[j] - t[j];
      ls += diff * diff;
      g[j] = 2.0 * diff * scale;
    }
    out.per_example[i] = ls;
    out.value += ls * scale;
  }
  return out;
}

LossResult BceWithLogitsLoss(const linalg::Matrix& logits,
                             const linalg::Matrix& target, bool mean) {
  P3GM_CHECK(logits.rows() == target.rows() &&
             logits.cols() == target.cols());
  const std::size_t b = logits.rows();
  const double scale = mean ? 1.0 / static_cast<double>(b) : 1.0;
  LossResult out;
  out.grad = linalg::Matrix(logits.rows(), logits.cols());
  out.per_example.assign(b, 0.0);
  // Each worker fills whole rows of grad and per_example. One
  // e = exp(-|x|) serves both terms with the bits of SoftplusScalar and
  // SigmoidScalar: for x >= 0 (-0.0 included) exp(-x) == e, and for
  // x < 0 exp(x) == e.
  util::ParallelFor(0, b, kLossRowGrain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      const double* l = logits.row_data(i);
      const double* t = target.row_data(i);
      double* g = out.grad.row_data(i);
      double ls = 0.0;
      for (std::size_t j = 0; j < logits.cols(); ++j) {
        const double x = l[j];
        const double e = std::exp(-std::fabs(x));
        const double softplus = std::max(x, 0.0) + std::log1p(e);
        const double sigmoid = x >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
        ls += softplus - t[j] * x;
        g[j] = (sigmoid - t[j]) * scale;
      }
      out.per_example[i] = ls;
    }
  });
  for (std::size_t i = 0; i < b; ++i) out.value += out.per_example[i] * scale;
  return out;
}

linalg::Matrix Softmax(const linalg::Matrix& logits) {
  linalg::Matrix probs = logits;
  for (std::size_t i = 0; i < probs.rows(); ++i) {
    double* row = probs.row_data(i);
    double mx = row[0];
    for (std::size_t j = 1; j < probs.cols(); ++j) mx = std::max(mx, row[j]);
    double total = 0.0;
    for (std::size_t j = 0; j < probs.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      total += row[j];
    }
    for (std::size_t j = 0; j < probs.cols(); ++j) row[j] /= total;
  }
  return probs;
}

LossResult SoftmaxCrossEntropy(const linalg::Matrix& logits,
                               const std::vector<std::size_t>& labels,
                               bool mean) {
  P3GM_CHECK(logits.rows() == labels.size());
  const std::size_t b = logits.rows();
  const double scale = mean ? 1.0 / static_cast<double>(b) : 1.0;
  LossResult out;
  out.grad = Softmax(logits);
  out.per_example.assign(b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    P3GM_CHECK(labels[i] < logits.cols());
    double* g = out.grad.row_data(i);
    const double p = std::max(g[labels[i]], 1e-300);
    out.per_example[i] = -std::log(p);
    out.value += out.per_example[i] * scale;
    g[labels[i]] -= 1.0;
    for (std::size_t j = 0; j < logits.cols(); ++j) g[j] *= scale;
  }
  return out;
}

KlResult StandardNormalKl(const linalg::Matrix& mu,
                          const linalg::Matrix& logvar, bool mean) {
  P3GM_CHECK(mu.rows() == logvar.rows() && mu.cols() == logvar.cols());
  const std::size_t b = mu.rows();
  const double scale = mean ? 1.0 / static_cast<double>(b) : 1.0;
  KlResult out;
  out.grad_mu = linalg::Matrix(mu.rows(), mu.cols());
  out.grad_logvar = linalg::Matrix(mu.rows(), mu.cols());
  out.per_example.assign(b, 0.0);
  for (std::size_t i = 0; i < b; ++i) {
    const double* m = mu.row_data(i);
    const double* lv = logvar.row_data(i);
    double* gm = out.grad_mu.row_data(i);
    double* glv = out.grad_logvar.row_data(i);
    double kl = 0.0;
    for (std::size_t j = 0; j < mu.cols(); ++j) {
      const double ev = std::exp(lv[j]);
      kl += -0.5 * (1.0 + lv[j] - m[j] * m[j] - ev);
      gm[j] = m[j] * scale;
      glv[j] = 0.5 * (ev - 1.0) * scale;
    }
    out.per_example[i] = kl;
    out.value += kl * scale;
  }
  return out;
}

}  // namespace nn
}  // namespace p3gm
