// Fixed-point number format and fake-quantisation, following the paper's
// §3.2/§4.2 setup: signed fixed-point with `integer_bits` to the left of the
// binary point (sign included) and the remaining bits as fraction.
//
// Paper bit allocations: "a 1-bit integer when bitwidth is 4, a 2-bit
// integer when bitwidth is 8, and 4-bit integers for the rest" — encoded in
// FixedPointFormat::paper_format().
//
// Every fake-quantisation in the tree — fixed_point_quantize, the weight
// transform and QuantActivation's forward — runs through one loop,
// fake_quantize, which is the kernel table's `fake_quant` entry
// (tensor/kernels/dispatch.h): bit-identical on every ISA to
// `nearbyint(x / step) * step` followed by saturation.
#pragma once

#include <cstdint>
#include <string>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace con::compress {

using tensor::Tensor;

struct FixedPointFormat {
  int total_bits = 32;
  int integer_bits = 4;  // includes the sign

  int fraction_bits() const { return total_bits - integer_bits; }
  // Quantisation step 2^-f, and its exact inverse 2^f.
  float step() const;
  float inv_step() const;
  // Saturation bounds [lo, hi]: lo = -2^(i-1), hi = 2^(i-1) - step.
  float lo() const;
  float hi() const;

  // The paper's integer-bit allocation for a given bitwidth.
  static FixedPointFormat paper_format(int total_bits);

  std::string to_string() const;
};

// Quantise n values: round half to even onto the grid, then saturate.
// gate[i] is the saturating straight-through estimator's gradient gate:
// 1 where the rounded value was representable, 0 where it saturated. `out`
// may alias `in`. Runs over tensor::parallel_for_chunks.
void fake_quantize(const FixedPointFormat& fmt, const float* in, float* out,
                   float* gate, tensor::Index n);

// Quantise a single value: round-to-nearest onto the grid, then saturate.
float fixed_point_quantize(float v, const FixedPointFormat& fmt);

// Quantise a whole tensor (returns a new tensor).
Tensor fixed_point_quantize(const Tensor& t, const FixedPointFormat& fmt);

// Weight transform plugging fixed-point fake-quantisation into Parameter.
// The gradient gate implements the saturating straight-through estimator:
// gradient flows where |raw| is inside the representable range and is
// blocked where the value saturated.
class FixedPointWeightTransform : public nn::WeightTransform {
 public:
  explicit FixedPointWeightTransform(FixedPointFormat fmt) : fmt_(fmt) {}

  void apply(const Tensor& raw, Tensor& effective,
             Tensor& gate) const override;
  std::string describe() const override;

  const FixedPointFormat& format() const { return fmt_; }

 private:
  FixedPointFormat fmt_;
};

}  // namespace con::compress
