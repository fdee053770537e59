// Layer abstraction for feed-forward networks.
//
// Layers are reentrant: forward writes whatever state its backward pass
// needs into a caller-owned TapeSlot, and backward reads it back from the
// same slot. backward returns the gradient with respect to the layer input
// (this is what lets attacks compute ∇ₓJ by chaining backward all the way
// to the image); it accumulates parameter gradients into Parameter::grad
// only when slot.accumulate_param_grads is set.
//
// Thread-safety contract: eval-mode forward and backward (with
// accumulate_param_grads=false) are safe to run concurrently on one shared
// layer, each thread with its own slot. Train-mode forward mutates layer
// state (Dropout's RNG, Parameter::grad_gate) and has one caller by
// contract, as does any backward that accumulates parameter gradients.
// One caller does not mean one thread: inside a call, the conv/pool stack
// fans its per-sample and elementwise stages and its GEMMs out over the
// pool, each output element with one owner (DESIGN.md §5), so the bits are
// those of a serial pass.
//
// A layer's name is fixed at construction; Sequential keys the layer's
// span and latency histograms on it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/parameter.h"
#include "nn/tape.h"
#include "tensor/tensor.h"

namespace con::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  // `train` enables train-only behaviour (dropout, batch statistics);
  // forward always records enough state in `slot` for a subsequent
  // backward, because attacks differentiate through models in eval mode.
  virtual Tensor forward(const Tensor& x, bool train,
                         TapeSlot& slot) const = 0;

  // grad_out: gradient of the loss w.r.t. this layer's output. Returns the
  // gradient w.r.t. this layer's input; accumulates into parameter grads
  // when slot.accumulate_param_grads. A single forward supports any number
  // of backward calls against the same slot (DeepFool differentiates every
  // logit off one forward).
  virtual Tensor backward(const Tensor& grad_out, TapeSlot& slot) const = 0;

  // backward() without the input gradient: accumulates exactly the
  // parameter gradients backward() would, and forms no ∇x. Training calls
  // it on the first layer that has parameters, whose ∇x nothing reads
  // (Sequential::backward_params). Layers whose input-gradient product
  // costs something override it; the default runs backward() and drops
  // the result.
  virtual void backward_params(const Tensor& grad_out, TapeSlot& slot) const {
    (void)backward(grad_out, slot);
  }

  virtual std::vector<Parameter*> parameters() { return {}; }

  const std::string& name() const { return name_; }

  // Deep copy, including parameter values, masks and transforms. Used to
  // derive compressed model variants from a trained baseline.
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  explicit Layer(std::string layer_name) : name_(std::move(layer_name)) {}

 private:
  std::string name_;
};

}  // namespace con::nn
