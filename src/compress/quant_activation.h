// Activation fake-quantisation layer and the model transform that
// interleaves it after every nonlinearity (and the input), turning a float
// model into a "weights + activations quantised" model as in §3.2 of the
// paper.
#pragma once

#include "compress/fixed_point.h"
#include "nn/layer.h"
#include "nn/sequential.h"

namespace con::compress {

// Applies fixed-point quantisation to its input on forward; backward is the
// saturating straight-through estimator (gradient passes where the value
// was representable, is zeroed where it saturated). Forward is one
// fake_quantize call (fixed_point.h, the kernel table's fake_quant entry):
// it writes the output and the STE gate in one pass, the gate into the
// slot's `aux` storage, which a slot reused at the same shape keeps. The
// deployed-int8 pass runs the same forward as its requantising gates.
class QuantActivation : public nn::Layer {
 public:
  explicit QuantActivation(FixedPointFormat fmt,
                           std::string layer_name = "quant_act");

  Tensor forward(const Tensor& x, bool train,
                 nn::TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, nn::TapeSlot& slot) const override;
  std::unique_ptr<nn::Layer> clone() const override;

  const FixedPointFormat& format() const { return fmt_; }

 private:
  FixedPointFormat fmt_;
};

struct QuantizeOptions {
  FixedPointFormat format;
  bool quantize_weights = true;
  bool quantize_activations = true;
};

// Returns a deep copy of `model` with:
//  - FixedPointWeightTransform attached to every compressible parameter
//    (when quantize_weights), and
//  - QuantActivation layers inserted after every parameterised or
//    activation layer (when quantize_activations), so all intermediate
//    activations flow through the fixed-point grid.
nn::Sequential quantize_model(const nn::Sequential& model,
                              const QuantizeOptions& options);

// Remove quantisation (weight transforms + QuantActivation layers) from a
// model copy; used to measure how much behaviour the quantisation itself
// contributes.
nn::Sequential strip_quantization(const nn::Sequential& model);

}  // namespace con::compress
