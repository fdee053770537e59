// Shape-manipulation layers: Flatten and Dropout (regularization).
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace con::nn {

// [N, ...] -> [N, prod(...)]. Records the input shape on the tape for
// backward.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string layer_name = "flatten")
      : Layer(std::move(layer_name)) {}

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(name());
  }
};

// Inverted dropout: active only when train=true. The RNG is owned by the
// layer so cloned models have independent dropout streams but deterministic
// behaviour under a fixed seed. It is `mutable` because only train-mode
// forwards (single-threaded by contract) draw from it; eval-mode forward is
// a no-op and thread-safe.
class Dropout : public Layer {
 public:
  Dropout(double drop_probability, std::uint64_t seed,
          std::string layer_name = "dropout");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  double p_;
  // conlint:allow(layer-reentrancy): dropout draws only in train-mode forwards, which are single-threaded by contract
  mutable con::util::Rng rng_;
};

}  // namespace con::nn
