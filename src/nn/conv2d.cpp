#include "nn/conv2d.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace con::nn {

using tensor::Index;
using tensor::Tensor;

namespace {

// out = W · cols wants W packed row-major as the left operand (rows =
// outC); dcols = Wᵀ · go wants W as the left operand of a TN product,
// i.e. packed along columns (rows = C·k·k).
void pack_conv(PackedWeights& pw) {
  pw.fwd = tensor::gemm::pack_rowmajor(pw.effective, tensor::gemm::kStripA);
  pw.bwd = tensor::gemm::pack_colmajor(pw.effective, tensor::gemm::kStripA);
}

// out = W · cols puts the weight codes on the left: A panels, rows = outC.
void pack_conv_int8(PackedInt8Weights& pw, const std::int8_t* codes,
                    Index rows, Index depth) {
  pw.a = tensor::gemm::pack_int8_a(codes, rows, depth);
}

}  // namespace

Conv2d::Conv2d(const Conv2dSpec& spec, con::util::Rng& rng,
               std::string layer_name)
    : Layer(std::move(layer_name)),
      spec_(spec),
      weight_(name() + ".weight",
              Tensor({spec.out_channels,
                      spec.in_channels * spec.kernel * spec.kernel})),
      bias_(name() + ".bias", Tensor({spec.out_channels})) {
  if (spec.in_channels <= 0 || spec.out_channels <= 0 || spec.kernel <= 0) {
    throw std::invalid_argument(name() + ": invalid conv spec");
  }
  tensor::fill_kaiming_normal(weight_.value, rng,
                              spec.in_channels * spec.kernel * spec.kernel);
  bias_.compressible = false;
}

Tensor Conv2d::forward(const Tensor& x, bool train, TapeSlot& slot) const {
  if (x.rank() != 4 || x.dim(1) != spec_.in_channels) {
    throw std::invalid_argument(name() + ": expected input [N, " +
                                std::to_string(spec_.in_channels) +
                                ", H, W], got " + x.shape().to_string());
  }
  const Index n = x.dim(0);
  slot.geom = tensor::Conv2dGeometry{
      .in_channels = spec_.in_channels,
      .in_h = x.dim(2),
      .in_w = x.dim(3),
      .kernel_h = spec_.kernel,
      .kernel_w = spec_.kernel,
      .stride = spec_.stride,
      .padding = spec_.padding,
  };
  const Index oh = slot.geom.out_h(), ow = slot.geom.out_w();
  check_output_size(oh, ow, x);
  slot.packed = cache_.get(weight_, &pack_conv);
  if (train) weight_.grad_gate = slot.packed->gate;
  slot.batch = n;

  // One im2col + one GEMM for the whole batch:
  // out[outC, N*P] = W[outC, C*k*k] * cols[C*k*k, N*P]. The columns are
  // lowered into the slot's own storage, reused while the shape holds.
  tensor::im2col_batch_into(x, slot.geom, slot.columns);
  Tensor out = tensor::gemm::matmul_nn(slot.packed->fwd, slot.columns);

  // Scatter [outC, N*P] into NCHW order and add the bias, per sample.
  Tensor y({n, spec_.out_channels, oh, ow});
  const Index plane = oh * ow;
  const Index total = n * plane;
  const float* od = out.data();
  const float* bd = bias_.value.data();
  float* yd = y.data();
  tensor::parallel_for_samples(n, [&](Index i) {
    for (Index c = 0; c < spec_.out_channels; ++c) {
      const float* src = od + c * total + i * plane;
      float* dst = yd + (i * spec_.out_channels + c) * plane;
      const float b = bd[c];
      for (Index p = 0; p < plane; ++p) dst[p] = src[p] + b;
    }
  });
  return y;
}

void Conv2d::check_output_size(Index oh, Index ow, const Tensor& x) const {
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        name() + ": input " + x.shape().to_string() + " is smaller than the " +
        std::to_string(spec_.kernel) + "x" + std::to_string(spec_.kernel) +
        " kernel (padding " + std::to_string(spec_.padding) + ")");
  }
}

Tensor Conv2d::forward_int8(const Tensor& x, const Int8FormatKey& key) const {
  if (x.rank() != 4 || x.dim(1) != spec_.in_channels) {
    throw std::invalid_argument(name() + ": expected input [N, " +
                                std::to_string(spec_.in_channels) +
                                ", H, W], got " + x.shape().to_string());
  }
  obs::Span span(name(), "int8");
  const Index n = x.dim(0);
  const tensor::Conv2dGeometry geom{
      .in_channels = spec_.in_channels,
      .in_h = x.dim(2),
      .in_w = x.dim(3),
      .kernel_h = spec_.kernel,
      .kernel_w = spec_.kernel,
      .stride = spec_.stride,
      .padding = spec_.padding,
  };
  const Index oh = geom.out_h(), ow = geom.out_w();
  check_output_size(oh, ow, x);
  const Index plane = oh * ow;
  const Index total = n * plane;
  const Index patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  const auto pw = cache_.get_int8(weight_, bias_, key, &pack_conv_int8);

  // Input codes, lowered to the k-major im2col layout the int8 GEMM
  // consumes as a raw right operand.
  std::vector<std::int8_t> xcodes(static_cast<std::size_t>(x.numel()));
  tensor::gemm::quantize_codes(xcodes.data(), x.data(), pw->act_inv_step,
                               pw->act_lo, pw->act_hi, x.numel());
  std::vector<std::int8_t> cols(static_cast<std::size_t>(patch * total));
  tensor::gemm::im2col_int8_batch(xcodes.data(), n, geom, cols.data());

  // acc[outC, N*P] in int32, requantised with the per-row (channel) bias —
  // the bias is folded at accumulator scale, so nothing is re-added below.
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(spec_.out_channels * total));
  tensor::gemm::Int8BSource bs{.raw = cols.data(), .ld = total};
  tensor::gemm::matmul_int8(pw->a, bs, total, acc.data());
  Tensor out({spec_.out_channels, total});
  tensor::gemm::requantize_row_bias(out.data(), acc.data(),
                                    pw->bias_codes.data(), pw->shift,
                                    pw->out_lo, pw->out_hi, pw->out_scale,
                                    spec_.out_channels, total);

  // Scatter [outC, N*P] into NCHW order.
  Tensor y({n, spec_.out_channels, oh, ow});
  const float* od = out.data();
  float* yd = y.data();
  for (Index i = 0; i < n; ++i) {
    for (Index c = 0; c < spec_.out_channels; ++c) {
      std::memcpy(yd + (i * spec_.out_channels + c) * plane,
                  od + c * total + i * plane,
                  static_cast<std::size_t>(plane) * sizeof(float));
    }
  }
  return y;
}

Tensor Conv2d::output_grad_columns(const Tensor& grad_out,
                                   const TapeSlot& slot) const {
  const Index n = slot.batch;
  const Index oh = slot.geom.out_h(), ow = slot.geom.out_w();
  const Index plane = oh * ow;
  if (grad_out.rank() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != spec_.out_channels || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow) {
    throw std::invalid_argument(name() + ": bad grad_out shape " +
                                grad_out.shape().to_string());
  }
  const Index total = n * plane;
  Tensor go({spec_.out_channels, total});
  const float* gd = grad_out.data();
  float* god = go.data();
  tensor::parallel_for_samples(n, [&](Index i) {
    for (Index c = 0; c < spec_.out_channels; ++c) {
      std::memcpy(god + c * total + i * plane,
                  gd + (i * spec_.out_channels + c) * plane,
                  static_cast<std::size_t>(plane) * sizeof(float));
    }
  });
  return go;
}

void Conv2d::accumulate_param_grads(const Tensor& go,
                                    const TapeSlot& slot) const {
  if (!slot.accumulate_param_grads) return;
  // dW += go[outC, N*P] * cols[CKK, N*P]^T — one GEMM for the batch.
  Tensor dw = tensor::matmul_nt(go, slot.columns);
  tensor::add_inplace(weight_.grad, dw);
  // db += row sums of go
  const Index total = go.dim(1);
  float* bg = bias_.grad.data();
  const float* god = go.data();
  for (Index c = 0; c < spec_.out_channels; ++c) {
    double acc = 0.0;
    for (Index p = 0; p < total; ++p) acc += god[c * total + p];
    bg[c] += static_cast<float>(acc);
  }
}

Tensor Conv2d::backward(const Tensor& grad_out, TapeSlot& slot) const {
  const Tensor go = output_grad_columns(grad_out, slot);
  accumulate_param_grads(go, slot);
  // dcols[CKK, N*P] = W^T * go, into the slot's scratch (slot.aux), which
  // keeps its storage while the shape holds.
  tensor::gemm::matmul_tn_into(slot.packed->bwd, go, slot.aux);
  return tensor::col2im_batch(slot.aux, slot.batch, slot.geom);
}

void Conv2d::backward_params(const Tensor& grad_out, TapeSlot& slot) const {
  accumulate_param_grads(output_grad_columns(grad_out, slot), slot);
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::unique_ptr<Layer>(new Conv2d(*this));
}

}  // namespace con::nn
