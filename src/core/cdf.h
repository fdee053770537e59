// Figure 6 analysis: cumulative distribution functions of
// all weights and all activations of a (quantised) model.
#pragma once

#include <vector>

#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace con::core {

// Empirical CDF sampled at `points` evenly-spaced x positions spanning
// [min, max] of the data.
struct Cdf {
  std::vector<float> xs;
  std::vector<double> ps;  // P(value <= x)
};

Cdf compute_cdf(std::vector<float> values, int points = 64);

// Evaluate an empirical CDF at a single x by interpolation.
double cdf_at(const Cdf& cdf, float x);

// All effective weights (mask and quantisation applied) of the model's
// compressible parameters, flattened.
std::vector<float> gather_effective_weights(const nn::Sequential& model);

// Outputs of every layer when `batch` flows through the model (eval mode),
// flattened and concatenated — "all activations" in the paper's Fig. 6
// sense. The input itself is not included.
std::vector<float> gather_activations(const nn::Sequential& model,
                                      const tensor::Tensor& batch);

}  // namespace con::core
