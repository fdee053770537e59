#include "nn/activations.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::nn {

Tensor ReLU::forward(const Tensor& x, bool /*train*/, TapeSlot& slot) const {
  slot.input = x;
  return tensor::relu(x);
}

Tensor ReLU::backward(const Tensor& grad_out, TapeSlot& slot) const {
  if (grad_out.shape() != slot.input.shape()) {
    throw std::invalid_argument(name() + ": grad shape mismatch");
  }
  Tensor gx = grad_out;
  tensor::relu_backward_inplace(gx, slot.input);
  return gx;
}

}  // namespace con::nn
