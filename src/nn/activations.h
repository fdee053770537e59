// Pointwise activation layer.
#pragma once

#include "nn/layer.h"

namespace con::nn {

class ReLU : public Layer {
 public:
  explicit ReLU(std::string layer_name = "relu")
      : Layer(std::move(layer_name)) {}

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(name());
  }
};

}  // namespace con::nn
