// Caller-owned execution state for forward/backward passes.
//
// Layers are stateless with respect to a single call: everything a backward
// pass needs from the preceding forward lives in a TapeSlot, and a
// ForwardTape holds one slot per layer of a Sequential. Because the tape is
// owned by the caller, any number of threads can run forward/backward on
// the SAME model concurrently, each with its own tape — the property the
// transfer-study harness relies on to evaluate a model × attack matrix in
// parallel without cloning models.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::nn {

using tensor::Tensor;

struct PackedWeights;

// Per-layer forward record. The fields are a union-of-needs across the
// layer zoo; each layer uses the subset documented next to it and ignores
// the rest:
//   Linear         input, packed (weight panels used by the forward)
//   Conv2d         columns (batched im2col), packed, geom, batch,
//                  aux (backward's column-gradient scratch)
//   ReLU           input
//   MaxPool2d      indices (argmax), in_shape
//   Flatten        in_shape
//   Dropout        aux (scaled keep mask; empty in eval mode)
//   QuantActivation aux (STE gate)
struct TapeSlot {
  Tensor input;
  Tensor aux;
  Tensor columns;
  // The weight snapshot the forward multiplied with. Backward reuses it so
  // a weight mutation between forward and backward (which would be a bug in
  // the caller anyway) cannot desynchronise the pair, and so the backward
  // GEMM gets pre-packed panels for free.
  std::shared_ptr<const PackedWeights> packed;
  tensor::Shape in_shape;
  tensor::Conv2dGeometry geom;
  std::vector<tensor::Index> indices;
  tensor::Index batch = 0;
  // When false, Layer::backward skips accumulating into Parameter::grad and
  // only propagates the input gradient. Attacks need ∇ₓ only; skipping the
  // shared-parameter accumulation is what makes concurrent backward passes
  // on one model race-free.
  bool accumulate_param_grads = true;
};

// One slot per layer, owned by whoever drives the pass. Reusing a tape
// across calls is encouraged — slots recycle their tensor storage.
class ForwardTape {
 public:
  ForwardTape() = default;
  explicit ForwardTape(bool accumulate_param_grads)
      : accumulate_(accumulate_param_grads) {}

  TapeSlot& slot(std::size_t i) {
    if (i >= slots_.size()) slots_.resize(i + 1);
    TapeSlot& s = slots_[i];
    s.accumulate_param_grads = accumulate_;
    return s;
  }

  void set_accumulate_param_grads(bool accumulate) {
    accumulate_ = accumulate;
    for (TapeSlot& s : slots_) s.accumulate_param_grads = accumulate;
  }
  bool accumulate_param_grads() const { return accumulate_; }

  std::size_t size() const { return slots_.size(); }

 private:
  std::vector<TapeSlot> slots_;
  bool accumulate_ = true;
};

}  // namespace con::nn
