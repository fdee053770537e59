#include "core/study.h"

#include <stdexcept>
#include <utility>

#include "attacks/attack.h"
#include "compress/clustering.h"
#include "core/artifacts.h"
#include "data/synth_digits.h"
#include "data/synth_objects.h"
#include "io/checkpoint.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace con::core {

namespace {

data::TrainTestSplit make_split(const StudyConfig& c) {
  if (c.attack_size > c.test_size) {
    throw std::invalid_argument("Study: attack_size exceeds test_size");
  }
  if (c.network.rfind("lenet5", 0) == 0) {
    data::SynthDigitsConfig dc;
    dc.train_size = c.train_size;
    dc.test_size = c.test_size;
    dc.seed = c.seed;
    return data::make_synth_digits(dc);
  }
  if (c.network.rfind("cifarnet", 0) == 0) {
    data::SynthObjectsConfig oc;
    oc.train_size = c.train_size;
    oc.test_size = c.test_size;
    oc.seed = c.seed;
    return data::make_synth_objects(oc);
  }
  throw std::invalid_argument("Study: unknown network " + c.network);
}

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      split_(make_split(config_)),
      attack_set_(split_.test.take(config_.attack_size)),
      store_(config_.store_dir.empty()
                 ? store::default_store_dir(io::artifacts_dir())
                 : config_.store_dir) {}

const store::Hash& Study::dataset_hash() {
  if (!dataset_hash_) dataset_hash_ = dataset_content_hash(split_);
  return *dataset_hash_;
}

void Study::train_model(nn::Sequential& model, std::uint64_t shuffle_seed) {
  util::log_info("training baseline %s (%d epochs, %lld samples)",
                 model.name().c_str(), config_.baseline_epochs,
                 static_cast<long long>(config_.train_size));
  obs::Span span(model.name(), "train_baseline");
  nn::TrainConfig tc;
  tc.epochs = config_.baseline_epochs;
  tc.batch_size = config_.batch_size;
  tc.shuffle_seed = shuffle_seed;
  nn::train_classifier(model, split_.train.images, split_.train.labels, tc);
}

nn::Sequential& Study::baseline() {
  if (baseline_.has_value()) return *baseline_;
  nn::Sequential model = models::make_model(config_.network, config_.seed);
  // The init-state hash is taken before training: it captures topology,
  // init scheme and seed, closing the derivation over models::make_model.
  const store::Derivation drv = baseline_derivation(
      config_, io::model_state_hash(model), dataset_hash());
  bool built = false;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    train_model(model, config_.seed ^ 0x5f5fULL);
    io::save_model(model, tmp);
    built = true;
  });
  if (!built) {
    util::log_info("loading stored baseline %s", path.c_str());
    io::load_model_into(model, path);
  }
  // Keep the current baseline's closure alive across GC; re-running with a
  // changed config re-points the root and strands the old closure.
  store_.add_root("baseline-" + config_.network, path);
  baseline_drv_ = drv.hash();
  baseline_ = std::move(model);
  return *baseline_;
}

const store::Hash& Study::baseline_drv_hash() {
  baseline();
  return baseline_drv_;
}

double Study::baseline_accuracy() {
  return nn::evaluate_accuracy(baseline(), split_.test.images,
                               split_.test.labels);
}

nn::Sequential Study::train_fresh_baseline(std::uint64_t init_seed) {
  nn::Sequential model = models::make_model(config_.network, init_seed);
  model.set_name(config_.network + "-init" + std::to_string(init_seed));
  nn::TrainConfig tc;
  tc.epochs = config_.baseline_epochs;
  tc.batch_size = config_.batch_size;
  tc.shuffle_seed = init_seed ^ 0x5f5fULL;
  nn::train_classifier(model, split_.train.images, split_.train.labels, tc);
  return model;
}

ModelArtifact Study::pruned_variant(double density, bool one_shot) {
  nn::Sequential& base = baseline();
  const store::Derivation drv = pruned_derivation(
      config_, baseline_drv_, dataset_hash(), density, one_shot);
  std::optional<nn::Sequential> model;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("pruning %s to density %.3f", base.name().c_str(), density);
    model = compress::make_pruned_model(base, split_.train, density,
                                        config_.finetune, one_shot);
    io::save_model(*model, tmp);
  });
  if (!model) {
    // Store hit: rebuild the (identical) topology and load weights, masks
    // and transforms from the checkpoint.
    model = models::make_model(config_.network, config_.seed);
    io::load_model_into(*model, path);
  }
  return ModelArtifact{std::move(*model), drv.hash()};
}

ModelArtifact Study::quantized_variant(int bits, bool quantize_activations) {
  nn::Sequential& base = baseline();
  const store::Derivation drv = quantized_derivation(
      config_, baseline_drv_, dataset_hash(), bits, quantize_activations);
  std::optional<nn::Sequential> model;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("quantising %s to %d bits", base.name().c_str(), bits);
    model = compress::make_quantized_model(base, split_.train, bits,
                                           config_.finetune,
                                           quantize_activations);
    io::save_model(*model, tmp);
  });
  if (!model) {
    // QuantActivation layers carry no parameters, so quantising a freshly
    // initialised model yields the checkpoint's exact parameter list; the
    // fixed-point weight transforms then load from the payload.
    compress::QuantizeOptions options{
        .format = compress::FixedPointFormat::paper_format(bits),
        .quantize_weights = true,
        .quantize_activations = quantize_activations,
    };
    model = compress::quantize_model(
        models::make_model(config_.network, config_.seed), options);
    io::load_model_into(*model, path);
  }
  return ModelArtifact{std::move(*model), drv.hash()};
}

ModelArtifact Study::clustered_variant(int bits) {
  nn::Sequential& base = baseline();
  const store::Derivation drv =
      clustered_derivation(config_, baseline_drv_, bits);
  std::optional<nn::Sequential> model;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    util::log_info("clustering %s to %d bits", base.name().c_str(), bits);
    model = compress::cluster_model(base, bits);
    io::save_model(*model, tmp);
  });
  if (!model) {
    model = models::make_model(config_.network, config_.seed);
    io::load_model_into(*model, path);
  }
  return ModelArtifact{std::move(*model), drv.hash()};
}

tensor::Tensor Study::baseline_adversarial(attacks::AttackKind attack,
                                           const attacks::AttackParams& params) {
  nn::Sequential& base = baseline();
  const store::Derivation drv =
      adversarial_derivation(baseline_drv_, dataset_hash(),
                             config_.attack_size, attack, params,
                             config_.network);
  std::optional<tensor::Tensor> adv;
  const std::string path = store_.realise(drv, [&](const std::string& tmp) {
    obs::Span span(base.name(), "baseline_adversarial");
    adv = attacks::run_attack_batched(attack, base, attack_set_.images,
                                      attack_set_.labels, params,
                                      attack_set_.num_classes());
    io::save_tensor(*adv, tmp);
  });
  if (!adv) adv = io::load_tensor(path);
  return std::move(*adv);
}

}  // namespace con::core
