#include "nn/sequential.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/ops.h"

namespace con::nn {

void Sequential::insert(std::size_t index, std::unique_ptr<Layer> layer) {
  if (index > layers_.size()) {
    throw std::out_of_range("Sequential::insert: index out of range");
  }
  const auto at = static_cast<std::ptrdiff_t>(index);
  timers_.insert(timers_.begin() + at,
                 {&obs::histogram(layer->name() + ".forward_ns"),
                  &obs::histogram(layer->name() + ".backward_ns")});
  layers_.insert(layers_.begin() + at, std::move(layer));
}

Tensor Sequential::forward_layer(std::size_t i, const Tensor& x, bool train,
                                 ForwardTape& tape) const {
  const Layer& layer = *layers_.at(i);
  obs::Span span(layer.name(), "fwd");
  obs::ScopedTimer timer(*timers_[i].forward_ns);
  return layer.forward(x, train, tape.slot(i));
}

Tensor Sequential::forward(const Tensor& x, bool train,
                           ForwardTape& tape) const {
  // Dispatch the first layer against `x` directly instead of copying the
  // batch into a working tensor — forward is called once per attack
  // iteration, so the head copy was a full-batch allocation per step.
  if (layers_.empty()) return x;
  obs::Span span(name_, "forward");
  static obs::Counter& calls = obs::counter("model.forward_calls");
  calls.add(1);
  Tensor h = forward_layer(0, x, train, tape);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    h = forward_layer(i, h, train, tape);
  }
  return h;
}

namespace {

void check_backward_tape(const ForwardTape& tape, std::size_t num_layers) {
  if (tape.size() < num_layers) {
    throw std::invalid_argument(
        "Sequential::backward: tape has no matching forward");
  }
}

void count_backward_call() {
  static obs::Counter& calls = obs::counter("model.backward_calls");
  calls.add(1);
}

}  // namespace

Tensor Sequential::backward_layer(std::size_t i, const Tensor& g,
                                  ForwardTape& tape) const {
  const Layer& layer = *layers_[i];
  obs::Span span(layer.name(), "bwd");
  obs::ScopedTimer timer(*timers_[i].backward_ns);
  return layer.backward(g, tape.slot(i));
}

Tensor Sequential::backward(const Tensor& grad_logits,
                            ForwardTape& tape) const {
  check_backward_tape(tape, layers_.size());
  if (layers_.empty()) return grad_logits;
  obs::Span span(name_, "backward");
  count_backward_call();
  const std::size_t last = layers_.size() - 1;
  Tensor g = backward_layer(last, grad_logits, tape);
  for (std::size_t i = last; i-- > 0;) g = backward_layer(i, g, tape);
  return g;
}

void Sequential::backward_params(const Tensor& grad_logits,
                                 ForwardTape& tape) const {
  check_backward_tape(tape, layers_.size());
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->parameters().empty()) {
    ++first;
  }
  if (first == layers_.size()) return;  // nothing to accumulate into
  obs::Span span(name_, "backward");
  count_backward_call();
  const std::size_t last = layers_.size() - 1;
  Tensor g;
  for (std::size_t i = last; i > first; --i) {
    g = backward_layer(i, i == last ? grad_logits : g, tape);
  }
  const Layer& stop = *layers_[first];
  obs::Span stop_span(stop.name(), "bwd");
  obs::ScopedTimer timer(*timers_[first].backward_ns);
  stop.backward_params(first == last ? grad_logits : g, tape.slot(first));
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  return forward(x, train, scratch_tape_);
}

Tensor Sequential::backward(const Tensor& grad_logits) {
  return backward(grad_logits, scratch_tape_);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<const Parameter*> Sequential::parameters() const {
  std::vector<const Parameter*> params;
  for (const auto& layer : layers_) {
    // Layer::parameters() is non-const only because callers may mutate the
    // parameters; the call itself does not modify the layer.
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

tensor::Index Sequential::num_parameters() const {
  tensor::Index n = 0;
  for (const Parameter* p : parameters()) n += p->value.numel();
  return n;
}

double Sequential::density() const {
  tensor::Index total = 0;
  tensor::Index nonzero = 0;
  for (const Parameter* p : parameters()) {
    if (!p->compressible) continue;
    total += p->value.numel();
    if (p->has_mask()) {
      for (float m : p->mask.flat()) {
        if (m != 0.0f) ++nonzero;
      }
    } else {
      nonzero += p->value.numel();
    }
  }
  if (total == 0) return 1.0;
  return static_cast<double>(nonzero) / static_cast<double>(total);
}

Sequential Sequential::clone() const {
  Sequential copy(name_);
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

std::string Sequential::summary() const {
  std::string s = name_ + " (" + std::to_string(num_parameters()) +
                  " parameters, density " +
                  std::to_string(density()) + ")\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    s += "  [" + std::to_string(i) + "] " + layers_[i]->name() + "\n";
  }
  return s;
}

}  // namespace con::nn
