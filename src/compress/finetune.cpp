#include "compress/finetune.h"

#include <cstdio>

#include "obs/obs.h"

namespace con::compress {

namespace {

nn::TrainConfig to_train_config(const FineTuneConfig& c) {
  return nn::TrainConfig{.epochs = c.epochs,
                         .batch_size = c.batch_size,
                         .base_lr = c.base_lr,
                         .momentum = c.momentum,
                         .weight_decay = c.weight_decay,
                         .shuffle_seed = c.seed,
                         .use_paper_lr_schedule = true};
}

}  // namespace

nn::Sequential make_pruned_model(const nn::Sequential& baseline,
                                 const data::Dataset& train, double density,
                                 const FineTuneConfig& config, bool one_shot) {
  nn::Sequential model = baseline.clone();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "-d%.3f", density);
  model.set_name(baseline.name() + buf);

  // Anneal the sparsity in over the first half of fine-tuning (see
  // DnsConfig::anneal_steps); only possible when there is a training run to
  // anneal across.
  const auto steps_per_epoch = static_cast<int>(
      (train.size() + config.batch_size - 1) / config.batch_size);
  const int total_steps = config.epochs * steps_per_epoch;
  DnsPruner pruner(model, DnsConfig{.target_density = density,
                                    .hysteresis = 0.1,
                                    .mask_update_every = 4,
                                    .allow_recovery = !one_shot,
                                    .anneal_steps =
                                        config.epochs > 0 ? total_steps / 3
                                                          : 0});
  if (config.epochs > 0) {
    obs::Span span(model.name(), "finetune");
    nn::train_classifier(model, train.images, train.labels,
                         to_train_config(config), pruner.hook());
    // Land exactly on the target density regardless of where the last
    // annealed update fell.
    pruner.set_target_density(density);
    pruner.update_masks();
  }
  return model;
}

nn::Sequential make_quantized_model(const nn::Sequential& baseline,
                                    const data::Dataset& train, int bitwidth,
                                    const FineTuneConfig& config,
                                    bool quantize_activations) {
  QuantizeOptions options{
      .format = FixedPointFormat::paper_format(bitwidth),
      .quantize_weights = true,
      .quantize_activations = quantize_activations,
  };
  nn::Sequential model = quantize_model(baseline, options);
  if (config.epochs > 0) {
    obs::Span span(model.name(), "finetune");
    nn::train_classifier(model, train.images, train.labels,
                         to_train_config(config));
  }
  return model;
}

}  // namespace con::compress
