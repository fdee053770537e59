// 2-D convolution over NCHW batches, implemented via im2col + matmul.
#pragma once

#include "nn/layer.h"
#include "nn/packed_weights.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace con::nn {

struct Conv2dSpec {
  tensor::Index in_channels = 0;
  tensor::Index out_channels = 0;
  tensor::Index kernel = 0;  // square kernels only, as in LeNet5/CifarNet
  tensor::Index stride = 1;
  tensor::Index padding = 0;
};

class Conv2d : public Layer {
 public:
  Conv2d(const Conv2dSpec& spec, con::util::Rng& rng,
         std::string layer_name = "conv");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  void backward_params(const Tensor& grad_out, TapeSlot& slot) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> clone() const override;

  // Deployed-integer forward (inference only, no tape): quantises x to the
  // key's activation grid, lowers the codes via int8 im2col (padding is
  // code 0), multiplies against cached packed weight-code panels with
  // int32 accumulators, and requantises — bit-identical to the
  // compress::integer_exec oracle for any --threads and any kernel table.
  Tensor forward_int8(const Tensor& x, const Int8FormatKey& key) const;

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Conv2d(const Conv2d&) = default;

  // Rejects an input smaller than the kernel (no output position).
  void check_output_size(tensor::Index oh, tensor::Index ow,
                         const Tensor& x) const;
  // grad_out [N, outC, OH, OW] gathered into the [outC, N·P] layout of the
  // forward GEMM output.
  Tensor output_grad_columns(const Tensor& grad_out,
                             const TapeSlot& slot) const;
  // dW += go · colsᵀ and db += row sums of go, when the slot accumulates.
  void accumulate_param_grads(const Tensor& go, const TapeSlot& slot) const;

  Conv2dSpec spec_;
  // weight stored as [out_channels, in_channels * k * k] for the matmul.
  Parameter weight_;
  Parameter bias_;
  // Packed effective-weight panels, rebuilt when weight_'s fingerprint
  // changes (internally mutable: packing is not logical layer state).
  PackedWeightsCache cache_;
};

}  // namespace con::nn
