#include "nn/reshape.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::nn {

using tensor::Index;
using tensor::Shape;

Tensor Flatten::forward(const Tensor& x, bool /*train*/, TapeSlot& slot) const {
  if (x.rank() < 2) {
    throw std::invalid_argument(name() + ": expected rank >= 2");
  }
  slot.in_shape = x.shape();
  return x.reshaped(Shape{{x.dim(0), x.numel() / x.dim(0)}});
}

Tensor Flatten::backward(const Tensor& grad_out, TapeSlot& slot) const {
  return grad_out.reshaped(slot.in_shape);
}

Dropout::Dropout(double drop_probability, std::uint64_t seed,
                 std::string layer_name)
    : Layer(std::move(layer_name)), p_(drop_probability), rng_(seed) {
  if (p_ < 0.0 || p_ >= 1.0) {
    throw std::invalid_argument(name() + ": drop probability must be in [0,1)");
  }
}

Tensor Dropout::forward(const Tensor& x, bool train, TapeSlot& slot) const {
  if (!train || p_ == 0.0) {
    slot.aux = Tensor();  // empty mask marks an eval-mode forward
    return x;
  }
  slot.aux = Tensor(x.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  for (float& m : slot.aux.flat()) {
    m = rng_.bernoulli(p_) ? 0.0f : keep_scale;
  }
  return tensor::mul(x, slot.aux);
}

Tensor Dropout::backward(const Tensor& grad_out, TapeSlot& slot) const {
  if (slot.aux.empty()) return grad_out;
  return tensor::mul(grad_out, slot.aux);
}

std::unique_ptr<Layer> Dropout::clone() const {
  auto copy = std::make_unique<Dropout>(p_, 0, name());
  copy->rng_ = rng_;
  return copy;
}

}  // namespace con::nn
