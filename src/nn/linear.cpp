#include "nn/linear.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"

namespace con::nn {

using tensor::Index;

namespace {

// y = x Wᵀ wants W's rows as the NT tile's doubles (converted once here,
// never per call); dx = g W wants W as the right operand of an NN product,
// i.e. packed along columns (rows = in).
void pack_linear(PackedWeights& pw) {
  pw.fwd_nt = tensor::gemm::pack_nt(pw.effective);
  pw.bwd = tensor::gemm::pack_colmajor(pw.effective, tensor::gemm::kStripB);
}

// y = x·Wᵀ puts the weight codes on the right: B panels, rows = out.
void pack_linear_int8(PackedInt8Weights& pw, const std::int8_t* codes,
                      Index rows, Index depth) {
  pw.b = tensor::gemm::pack_int8_b(codes, rows, depth);
}

}  // namespace

Linear::Linear(Index in_features, Index out_features, con::util::Rng& rng,
               std::string layer_name)
    : Layer(std::move(layer_name)),
      in_features_(in_features),
      out_features_(out_features),
      weight_(name() + ".weight", Tensor({out_features, in_features})),
      bias_(name() + ".bias", Tensor({out_features})) {
  tensor::fill_kaiming_normal(weight_.value, rng, in_features);
  bias_.compressible = false;
}

Tensor Linear::forward(const Tensor& x, bool train, TapeSlot& slot) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument(name() + ": expected input [N, " +
                                std::to_string(in_features_) + "], got " +
                                x.shape().to_string());
  }
  slot.input = x;
  slot.packed = cache_.get(weight_, &pack_linear);
  // The optimizer reads grad_gate at step() time; only a training forward
  // (single-threaded by contract) may refresh it.
  if (train) weight_.grad_gate = slot.packed->gate;
  // y[N, out] = x[N, in] * W[out, in]^T
  Tensor y = tensor::gemm::matmul_nt(x, slot.packed->fwd_nt);
  tensor::bias_add_inplace(y, bias_.value);
  return y;
}

Tensor Linear::forward_int8(const Tensor& x, const Int8FormatKey& key) const {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument(name() + ": expected input [N, " +
                                std::to_string(in_features_) + "], got " +
                                x.shape().to_string());
  }
  obs::Span span(name(), "int8");
  const Index n = x.dim(0);
  const auto pw = cache_.get_int8(weight_, bias_, key, &pack_linear_int8);
  // Input codes, packed as the left operand.
  std::vector<std::int8_t> xcodes(static_cast<std::size_t>(x.numel()));
  tensor::gemm::quantize_codes(xcodes.data(), x.data(), pw->act_inv_step,
                               pw->act_lo, pw->act_hi, x.numel());
  const tensor::gemm::PackedInt8A pa =
      tensor::gemm::pack_int8_a(xcodes.data(), n, in_features_);
  // acc[N, out] in int32, then requantise with the per-column bias.
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(n * out_features_));
  tensor::gemm::Int8BSource bs{.packed = &pw->b};
  tensor::gemm::matmul_int8(pa, bs, out_features_, acc.data());
  Tensor y({n, out_features_});
  tensor::gemm::requantize_col_bias(y.data(), acc.data(),
                                    pw->bias_codes.data(), pw->shift,
                                    pw->out_lo, pw->out_hi, pw->out_scale, n,
                                    out_features_);
  return y;
}

void Linear::backward_params(const Tensor& grad_out, TapeSlot& slot) const {
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_features_ ||
      grad_out.dim(0) != slot.input.dim(0)) {
    throw std::invalid_argument(name() + ": bad grad_out shape " +
                                grad_out.shape().to_string());
  }
  if (!slot.accumulate_param_grads) return;
  // dW[out, in] = grad_out[N, out]^T * x[N, in]
  Tensor dw = tensor::matmul_tn(grad_out, slot.input);
  tensor::add_inplace(weight_.grad, dw);
  // db[out] = column sums of grad_out
  tensor::column_sums_add_inplace(bias_.grad, grad_out);
}

Tensor Linear::backward(const Tensor& grad_out, TapeSlot& slot) const {
  backward_params(grad_out, slot);
  // dx[N, in] = grad_out[N, out] * W[out, in]
  return tensor::gemm::matmul_nn(grad_out, slot.packed->bwd);
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::unique_ptr<Layer>(new Linear(*this));
}

}  // namespace con::nn
