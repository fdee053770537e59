// Max pooling over NCHW batches.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace con::nn {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(tensor::Index window, tensor::Index stride,
            std::string layer_name = "maxpool");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(window_, stride_, name());
  }

 private:
  tensor::Index window_;
  tensor::Index stride_;
};

}  // namespace con::nn
