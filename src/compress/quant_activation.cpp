#include "compress/quant_activation.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace con::compress {

using tensor::Tensor;

QuantActivation::QuantActivation(FixedPointFormat fmt, std::string layer_name)
    : Layer(std::move(layer_name)), fmt_(fmt) {}

Tensor QuantActivation::forward(const Tensor& x, bool /*train*/,
                                nn::TapeSlot& slot) const {
  Tensor y(x.shape());
  // The gate overwrites every element, so a slot reused at the same shape
  // keeps its storage as is.
  slot.aux.ensure_shape(x.shape());
  fake_quantize(fmt_, x.data(), y.data(), slot.aux.data(), x.numel());
  return y;
}

Tensor QuantActivation::backward(const Tensor& grad_out,
                                 nn::TapeSlot& slot) const {
  if (grad_out.shape() != slot.aux.shape()) {
    throw std::invalid_argument(name() + ": grad shape mismatch");
  }
  return tensor::mul(grad_out, slot.aux);
}

std::unique_ptr<nn::Layer> QuantActivation::clone() const {
  return std::make_unique<QuantActivation>(fmt_, name());
}

nn::Sequential quantize_model(const nn::Sequential& model,
                              const QuantizeOptions& options) {
  nn::Sequential q = model.clone();
  q.set_name(model.name() + "-q" + std::to_string(options.format.total_bits));

  if (options.quantize_weights) {
    auto transform =
        std::make_shared<const FixedPointWeightTransform>(options.format);
    for (nn::Parameter* p : q.parameters()) {
      if (p->compressible) {
        p->transform = transform;
        p->bump_version();
      }
    }
  }

  if (options.quantize_activations) {
    // Insert after every layer that produces activations the hardware would
    // keep in fixed point: parameterised layers and nonlinearities. Also
    // quantise the network input (sensor data enters the fixed-point
    // datapath first on a real accelerator).
    std::size_t i = 0;
    q.insert(0, std::make_unique<QuantActivation>(
                    options.format, "quant_in"));
    i = 1;
    while (i < q.num_layers()) {
      nn::Layer& layer = q.layer(i);
      const bool produces_activations =
          !layer.parameters().empty() || layer.name().rfind("relu", 0) == 0 ||
          layer.name().rfind("tanh", 0) == 0;
      const bool already_quant =
          dynamic_cast<QuantActivation*>(&layer) != nullptr;
      if (produces_activations && !already_quant) {
        q.insert(i + 1, std::make_unique<QuantActivation>(
                            options.format,
                            "quant_" + layer.name()));
        i += 2;
      } else {
        ++i;
      }
    }
  }
  return q;
}

nn::Sequential strip_quantization(const nn::Sequential& model) {
  nn::Sequential out(model.name() + "-dequant");
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (dynamic_cast<const QuantActivation*>(&layer) != nullptr) continue;
    out.add(layer.clone());
  }
  for (nn::Parameter* p : out.parameters()) {
    p->transform.reset();
    // Without the bump a layer that already packed its quantized panels
    // would keep serving them after the transform is gone.
    p->bump_version();
  }
  return out;
}

}  // namespace con::compress
