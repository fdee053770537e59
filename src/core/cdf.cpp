#include "core/cdf.h"

#include <algorithm>
#include <stdexcept>

namespace con::core {

Cdf compute_cdf(std::vector<float> values, int points) {
  if (values.empty()) throw std::invalid_argument("compute_cdf: no data");
  if (points < 2) throw std::invalid_argument("compute_cdf: need >= 2 points");
  std::sort(values.begin(), values.end());
  const float lo = values.front();
  const float hi = values.back();
  Cdf cdf;
  cdf.xs.resize(static_cast<std::size_t>(points));
  cdf.ps.resize(static_cast<std::size_t>(points));
  const double n = static_cast<double>(values.size());
  for (int i = 0; i < points; ++i) {
    const float x =
        lo + (hi - lo) * static_cast<float>(i) / static_cast<float>(points - 1);
    // count of values <= x
    const auto it = std::upper_bound(values.begin(), values.end(), x);
    cdf.xs[static_cast<std::size_t>(i)] = x;
    cdf.ps[static_cast<std::size_t>(i)] =
        static_cast<double>(it - values.begin()) / n;
  }
  return cdf;
}

double cdf_at(const Cdf& cdf, float x) {
  if (cdf.xs.empty()) throw std::invalid_argument("cdf_at: empty cdf");
  if (x <= cdf.xs.front()) return cdf.ps.front();
  if (x >= cdf.xs.back()) return cdf.ps.back();
  const auto it = std::lower_bound(cdf.xs.begin(), cdf.xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - cdf.xs.begin());
  const float x0 = cdf.xs[i - 1], x1 = cdf.xs[i];
  const double p0 = cdf.ps[i - 1], p1 = cdf.ps[i];
  if (x1 == x0) return p1;
  return p0 + (p1 - p0) * (static_cast<double>(x) - x0) / (x1 - x0);
}

std::vector<float> gather_effective_weights(const nn::Sequential& model) {
  std::vector<float> weights;
  for (const nn::Parameter* p : model.parameters()) {
    if (!p->compressible) continue;
    tensor::Tensor gate;
    tensor::Tensor eff = p->effective(gate);
    weights.insert(weights.end(), eff.flat().begin(), eff.flat().end());
  }
  return weights;
}

std::vector<float> gather_activations(const nn::Sequential& model,
                                      const tensor::Tensor& batch) {
  std::vector<float> activations;
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  tensor::Tensor h = batch;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    h = model.forward_layer(i, h, /*train=*/false, tape);
    activations.insert(activations.end(), h.flat().begin(), h.flat().end());
  }
  return activations;
}

}  // namespace con::core
