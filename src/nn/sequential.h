// Sequential model: an ordered stack of layers with chained forward/backward.
//
// The model itself is immutable during execution: forward/backward are
// const and thread on a caller-owned ForwardTape, so any number of threads
// may run eval-mode forward + non-accumulating backward on one shared
// model concurrently (see nn/layer.h for the full contract). The
// tape-less forward/backward overloads are a single-threaded convenience
// backed by an internal scratch tape.
//
// Sequential is the one timing site for layers: every layer call runs
// inside a "<layer>.fwd"/".bwd" span and records its wall time into the
// "<layer>.forward_ns"/".backward_ns" histograms, resolved once when the
// layer is added.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/tape.h"

namespace con::obs {
class Histogram;
}  // namespace con::obs

namespace con::nn {

class Sequential {
 public:
  Sequential() = default;
  explicit Sequential(std::string model_name) : name_(std::move(model_name)) {}

  // Movable, not copyable (use clone() for deep copies).
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  void add(std::unique_ptr<Layer> layer) {
    insert(layers_.size(), std::move(layer));
  }

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  // Insert a layer at position `index` (used by the quantisation pass to
  // interleave activation-quantisation layers).
  void insert(std::size_t index, std::unique_ptr<Layer> layer);

  // Reentrant execution: per-call state lives in `tape` (slot i belongs to
  // layer i), never in the layers. One forward supports any number of
  // backward calls against the same tape.
  Tensor forward(const Tensor& x, bool train, ForwardTape& tape) const;
  // Gradient of the loss w.r.t. the model input; parameter grads accumulate
  // iff tape.accumulate_param_grads().
  Tensor backward(const Tensor& grad_logits, ForwardTape& tape) const;
  // The training backward: accumulates the same parameter gradients as
  // backward(), bit for bit, but forms no ∇x. It stops at the first layer
  // that has parameters, which runs Layer::backward_params (no
  // input-gradient product); the layers before it get no backward at all.
  void backward_params(const Tensor& grad_logits, ForwardTape& tape) const;
  // Layer i's forward alone, timed like a step of forward(): for callers
  // that read intermediate activations.
  Tensor forward_layer(std::size_t i, const Tensor& x, bool train,
                       ForwardTape& tape) const;

  // Single-threaded convenience overloads backed by an internal scratch
  // tape. NOT safe to call concurrently on a shared model.
  Tensor forward(const Tensor& x, bool train = false);
  Tensor backward(const Tensor& grad_logits);

  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;
  void zero_grad();

  // Total number of weight/bias scalars (the paper quotes 431K for LeNet5,
  // 1.3M for CifarNet).
  tensor::Index num_parameters() const;
  // Overall density: non-zero fraction of effective (masked) compressible
  // weights. 1.0 for a dense model.
  double density() const;

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  Sequential clone() const;

  // Human-readable architecture summary.
  std::string summary() const;

 private:
  std::string name_ = "model";
  std::vector<std::unique_ptr<Layer>> layers_;
  // Per-layer latency histograms, parallel to layers_.
  struct LayerTimers {
    obs::Histogram* forward_ns;
    obs::Histogram* backward_ns;
  };
  std::vector<LayerTimers> timers_;
  // Layer i's backward inside its ".bwd" span and timer.
  Tensor backward_layer(std::size_t i, const Tensor& g,
                        ForwardTape& tape) const;
  // Backs the tape-less convenience overloads only.
  ForwardTape scratch_tape_;
};

}  // namespace con::nn
