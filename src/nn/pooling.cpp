#include "nn/pooling.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/ops.h"

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
  // Checked before dividing: (h - window) / stride + 1 truncates toward
  // zero, so an input smaller than the window would get one output row.
  if (h < window_ || w < window_) {
    throw std::invalid_argument(name() + ": input " + x.shape().to_string() +
                                " is smaller than the " +
                                std::to_string(window_) + "x" +
                                std::to_string(window_) + " window");
  }
  const Index oh = (h - window_) / stride_ + 1;
  const Index ow = (w - window_) / stride_ + 1;
  slot.in_shape = x.shape();
  Tensor y({n, c, oh, ow});
  // Flat input index of the max element for every output element; the
  // loop below writes every entry.
  slot.indices.resize(static_cast<std::size_t>(y.numel()));
  const float* in = x.data();
  float* out = y.data();
  Index* idx = slot.indices.data();
  tensor::parallel_for_samples(n, [&](Index i) {
    Index o = i * c * oh * ow;
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
          idx[o] = best_idx;
        }
      }
    }
  });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out, TapeSlot& slot) const {
  if (static_cast<std::size_t>(grad_out.numel()) != slot.indices.size()) {
    throw std::invalid_argument(name() + ": grad size mismatch");
  }
  Tensor gx(slot.in_shape);
  float* g = gx.data();
  const float* go = grad_out.data();
  const Index* idx = slot.indices.data();
  // Every argmax lies inside its own sample's planes (forward keeps even
  // an all -inf/NaN window's index in the window), so each sample's
  // scatter touches only memory that sample owns.
  const Index n = slot.in_shape.dim(0);
  if (n == 0) return gx;
  const Index per_sample = grad_out.numel() / n;
  tensor::parallel_for_samples(n, [&](Index i) {
    for (Index o = i * per_sample; o < (i + 1) * per_sample; ++o) {
      g[idx[o]] += go[o];
    }
  });
  return gx;
}

}  // namespace con::nn
