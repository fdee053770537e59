#include "core/defense.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace con::core {

using tensor::Index;
using tensor::Tensor;

AdvTrainStats adversarial_train(nn::Sequential& model,
                                const data::Dataset& train,
                                const AdvTrainConfig& config) {
  if (train.size() == 0) {
    throw std::invalid_argument("adversarial_train: empty dataset");
  }
  if (config.adversarial_fraction < 0.0 ||
      config.adversarial_fraction > 1.0) {
    throw std::invalid_argument(
        "adversarial_train: adversarial_fraction must be in [0, 1]");
  }
  nn::Sgd optimizer(model.parameters(),
                    nn::SgdConfig{.learning_rate = config.train.base_lr,
                                  .momentum = config.train.momentum,
                                  .weight_decay = config.train.weight_decay});
  nn::StepLrSchedule schedule = nn::StepLrSchedule::paper_schedule(
      config.train.base_lr, config.train.epochs);
  util::Rng rng(config.train.shuffle_seed);

  const Index n = train.size();
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});

  AdvTrainStats stats;
  nn::ForwardTape tape(/*accumulate_param_grads=*/true);
  for (int epoch = 0; epoch < config.train.epochs; ++epoch) {
    if (config.train.use_paper_lr_schedule) {
      optimizer.set_learning_rate(schedule.lr_at_epoch(epoch));
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    const auto bs = static_cast<std::size_t>(config.train.batch_size);
    for (std::size_t lo = 0; lo < order.size(); lo += bs) {
      const std::size_t hi = std::min(order.size(), lo + bs);
      std::vector<Index> dims = train.images.shape().dims();
      dims[0] = static_cast<Index>(hi - lo);
      Tensor batch{tensor::Shape{dims}};
      std::vector<int> labels;
      labels.reserve(hi - lo);
      for (std::size_t j = lo; j < hi; ++j) {
        tensor::set_batch(batch, static_cast<Index>(j - lo),
                          tensor::slice_batch(train.images, order[j]));
        labels.push_back(
            train.labels[static_cast<std::size_t>(order[j])]);
      }
      // Replace the leading fraction of the batch with adversarial
      // versions crafted against the CURRENT weights.
      const auto n_adv = static_cast<Index>(
          config.adversarial_fraction * static_cast<double>(hi - lo));
      if (n_adv > 0) {
        std::vector<Index> adv_dims = dims;
        adv_dims[0] = n_adv;
        Tensor sub{tensor::Shape{adv_dims}};
        std::vector<int> sub_labels(labels.begin(), labels.begin() + n_adv);
        for (Index j = 0; j < n_adv; ++j) {
          tensor::set_batch(sub, j, tensor::slice_batch(batch, j));
        }
        Tensor adv = attacks::run_attack(config.attack, model, sub,
                                         sub_labels, config.attack_params);
        for (Index j = 0; j < n_adv; ++j) {
          tensor::set_batch(batch, j, tensor::slice_batch(adv, j));
        }
      }
      model.zero_grad();
      Tensor logits = model.forward(batch, /*train=*/true, tape);
      nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
      model.backward_params(loss.grad_logits, tape);
      optimizer.step();
      ++stats.steps;
    }
  }
  stats.final_clean_accuracy =
      nn::evaluate_accuracy(model, train.images, train.labels);
  return stats;
}

RobustnessReport measure_robustness(const nn::Sequential& model,
                                    const data::Dataset& eval_set,
                                    attacks::AttackKind attack,
                                    const attacks::AttackParams& params) {
  RobustnessReport report;
  report.clean_accuracy =
      nn::evaluate_accuracy(model, eval_set.images, eval_set.labels);
  Tensor adv = attacks::run_attack_batched(attack, model, eval_set.images,
                                           eval_set.labels, params,
                                           eval_set.num_classes());
  report.adversarial_accuracy =
      nn::evaluate_accuracy(model, adv, eval_set.labels);
  const std::vector<int> clean_pred = nn::predict(model, eval_set.images);
  const std::vector<int> adv_pred = nn::predict(model, adv);
  std::size_t correct = 0, fooled = 0;
  for (std::size_t i = 0; i < eval_set.labels.size(); ++i) {
    if (clean_pred[i] != eval_set.labels[i]) continue;
    ++correct;
    if (adv_pred[i] != eval_set.labels[i]) ++fooled;
  }
  report.fooling_rate =
      correct == 0 ? 0.0
                   : static_cast<double>(fooled) / static_cast<double>(correct);
  return report;
}

}  // namespace con::core
