#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

namespace con::nn {

using tensor::Index;

MaxPool2d::MaxPool2d(Index window, Index stride, std::string layer_name)
    : Layer(std::move(layer_name)), window_(window), stride_(stride) {
  if (window <= 0 || stride <= 0) {
    throw std::invalid_argument(name() + ": invalid pooling spec");
  }
}

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/,
                          TapeSlot& slot) const {
  if (x.rank() != 4) {
    throw std::invalid_argument(name() + ": expected NCHW input, got " +
                                x.shape().to_string());
  }
  const Index n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const Index oh = (h - window_) / stride_ + 1;
  const Index ow = (w - window_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(name() + ": input too small for window");
  }
  slot.in_shape = x.shape();
  Tensor y({n, c, oh, ow});
  // Flat input index of the max element for every output element.
  slot.indices.assign(static_cast<std::size_t>(y.numel()), 0);
  const float* in = x.data();
  float* out = y.data();
  Index o = 0;
  for (Index i = 0; i < n; ++i) {
    for (Index ch = 0; ch < c; ++ch) {
      const float* plane = in + (i * c + ch) * h * w;
      const Index plane_base = (i * c + ch) * h * w;
      for (Index py = 0; py < oh; ++py) {
        for (Index px = 0; px < ow; ++px, ++o) {
          // A window of only -inf/NaN keeps its first element, so its
          // gradient stays inside this image's window.
          float best = -std::numeric_limits<float>::infinity();
          Index best_idx = plane_base + py * stride_ * w + px * stride_;
          for (Index dy = 0; dy < window_; ++dy) {
            const Index yy = py * stride_ + dy;
            for (Index dx = 0; dx < window_; ++dx) {
              const Index xx = px * stride_ + dx;
              const float v = plane[yy * w + xx];
              if (v > best) {
                best = v;
                best_idx = plane_base + yy * w + xx;
              }
            }
          }
          out[o] = best;
          slot.indices[static_cast<std::size_t>(o)] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out, TapeSlot& slot) const {
  if (static_cast<std::size_t>(grad_out.numel()) != slot.indices.size()) {
    throw std::invalid_argument(name() + ": grad size mismatch");
  }
  Tensor gx(slot.in_shape);
  float* g = gx.data();
  const float* go = grad_out.data();
  for (std::size_t i = 0; i < slot.indices.size(); ++i) {
    g[slot.indices[i]] += go[i];
  }
  return gx;
}

}  // namespace con::nn
