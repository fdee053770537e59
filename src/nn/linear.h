// Fully-connected layer: y = x W^T + b, x: [N, in], W: [out, in], b: [out].
#pragma once

#include "nn/layer.h"
#include "nn/packed_weights.h"
#include "util/rng.h"

namespace con::nn {

class Linear : public Layer {
 public:
  Linear(tensor::Index in_features, tensor::Index out_features,
         con::util::Rng& rng, std::string layer_name = "linear");

  Tensor forward(const Tensor& x, bool train, TapeSlot& slot) const override;
  Tensor backward(const Tensor& grad_out, TapeSlot& slot) const override;
  void backward_params(const Tensor& grad_out, TapeSlot& slot) const override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> clone() const override;

  // Deployed-integer forward (inference only, no tape): quantises x to the
  // key's activation grid, multiplies int8 codes against cached packed
  // weight-code panels with int32 accumulators, and requantises with a
  // round-half-even shift — bit-identical to the compress::integer_exec
  // oracle for any --threads and any kernel table (tensor/gemm_int8.h).
  // Requires weight_'s transform to snap onto exactly the key's grid.
  Tensor forward_int8(const Tensor& x, const Int8FormatKey& key) const;

  tensor::Index in_features() const { return in_features_; }
  tensor::Index out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Linear(const Linear&) = default;

  tensor::Index in_features_;
  tensor::Index out_features_;
  Parameter weight_;
  Parameter bias_;
  // Packed effective-weight panels, rebuilt when weight_'s fingerprint
  // changes (internally mutable: packing is not logical layer state).
  PackedWeightsCache cache_;
};

}  // namespace con::nn
