#include "core/artifacts.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace con::core {

namespace {

// Hash one tensor into an open digest: shape then raw float bytes, so two
// datasets agree iff they are element-wise identical.
void update_with_tensor(store::Sha256& h, const tensor::Tensor& t) {
  for (tensor::Index d : t.shape().dims()) {
    const std::int64_t dim = d;
    h.update(&dim, sizeof(dim));
  }
  h.update(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  h.update(";");
}

void update_with_labels(store::Sha256& h, const std::vector<int>& labels) {
  const std::uint64_t n = labels.size();
  h.update(&n, sizeof(n));
  h.update(labels.data(), labels.size() * sizeof(int));
  h.update(";");
}

void set_finetune_attrs(store::Derivation& d,
                        const compress::FineTuneConfig& ft) {
  d.set("ft.epochs", static_cast<std::int64_t>(ft.epochs));
  d.set("ft.batch_size", static_cast<std::int64_t>(ft.batch_size));
  d.set("ft.base_lr", static_cast<double>(ft.base_lr));
  d.set("ft.momentum", static_cast<double>(ft.momentum));
  d.set("ft.weight_decay", static_cast<double>(ft.weight_decay));
  d.set("ft.seed", static_cast<std::uint64_t>(ft.seed));
}

void set_attack_attrs(store::Derivation& d, const store::Hash& dataset,
                      tensor::Index attack_size, attacks::AttackKind attack,
                      const attacks::AttackParams& params) {
  d.set("dataset", dataset);
  d.set("attack", attacks::attack_name(attack));
  d.set("epsilon", static_cast<double>(params.epsilon));
  d.set("iterations", static_cast<std::int64_t>(params.iterations));
  d.set("attack_size", static_cast<std::int64_t>(attack_size));
}

}  // namespace

store::Hash dataset_content_hash(const data::TrainTestSplit& split) {
  store::Sha256 h;
  h.update("dataset 1\n");
  update_with_tensor(h, split.train.images);
  update_with_labels(h, split.train.labels);
  update_with_tensor(h, split.test.images);
  update_with_labels(h, split.test.labels);
  return h.finish();
}

store::Derivation baseline_derivation(const StudyConfig& config,
                                      const store::Hash& init_state,
                                      const store::Hash& dataset) {
  store::Derivation d("train-baseline",
                      config.network + "-s" + std::to_string(config.seed));
  d.set("network", config.network);
  d.set("train_size", static_cast<std::int64_t>(config.train_size));
  d.set("epochs", static_cast<std::int64_t>(config.baseline_epochs));
  d.set("batch_size", static_cast<std::int64_t>(config.batch_size));
  d.set("seed", static_cast<std::uint64_t>(config.seed));
  d.set("shuffle_seed", static_cast<std::uint64_t>(config.seed ^ 0x5f5fULL));
  // Content hashes close over what config fields cannot: `init_state` is
  // the initialised (untrained) model, so topology or init-scheme edits in
  // models::make_model re-address the checkpoint; `dataset` does the same
  // for the synth generators.
  d.set("init_state", init_state);
  d.set("dataset", dataset);
  return d;
}

store::Derivation pruned_derivation(const StudyConfig& config,
                                    const store::Hash& baseline_drv,
                                    const store::Hash& dataset, double density,
                                    bool one_shot) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-d%.3f", density);
  store::Derivation d("prune-finetune", config.network + suffix);
  d.set("density", density);
  d.set("one_shot", one_shot);
  d.set("dataset", dataset);
  set_finetune_attrs(d, config.finetune);
  d.set("baseline", baseline_drv);
  d.add_input(baseline_drv);
  return d;
}

store::Derivation quantized_derivation(const StudyConfig& config,
                                       const store::Hash& baseline_drv,
                                       const store::Hash& dataset, int bits,
                                       bool quantize_activations) {
  store::Derivation d("quantize-finetune",
                      config.network + "-q" + std::to_string(bits));
  d.set("bits", static_cast<std::int64_t>(bits));
  d.set("quantize_activations", quantize_activations);
  d.set("dataset", dataset);
  set_finetune_attrs(d, config.finetune);
  d.set("baseline", baseline_drv);
  d.add_input(baseline_drv);
  return d;
}

store::Derivation clustered_derivation(const StudyConfig& config,
                                       const store::Hash& baseline_drv,
                                       int bits) {
  store::Derivation d("cluster", config.network + "-c" + std::to_string(bits));
  d.set("bits", static_cast<std::int64_t>(bits));
  d.set("baseline", baseline_drv);
  d.add_input(baseline_drv);
  return d;
}

store::Derivation adversarial_derivation(const store::Hash& source_drv,
                                         const store::Hash& dataset,
                                         tensor::Index attack_size,
                                         attacks::AttackKind attack,
                                         const attacks::AttackParams& params,
                                         const std::string& name) {
  store::Derivation d("adversarial-batch",
                      name + "-" + attacks::attack_name(attack));
  set_attack_attrs(d, dataset, attack_size, attack, params);
  d.set("source", source_drv);
  d.add_input(source_drv);
  return d;
}

store::Derivation transfer_cell_derivation(const store::Hash& baseline_drv,
                                           const store::Hash& variant_drv,
                                           const store::Hash& dataset,
                                           tensor::Index attack_size,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params,
                                           const std::string& name) {
  store::Derivation d("transfer-cell",
                      name + "-" + attacks::attack_name(attack));
  set_attack_attrs(d, dataset, attack_size, attack, params);
  // Inputs are serialized as a sorted set, which cannot distinguish the
  // two roles; the role-named attributes keep cell(A,B) and cell(B,A) at
  // distinct addresses while add_input provides the GC edges.
  d.set("baseline", baseline_drv);
  d.set("variant", variant_drv);
  d.add_input(baseline_drv);
  d.add_input(variant_drv);
  return d;
}

store::Derivation integer_cell_derivation(
    const store::Hash& baseline_drv, const store::Hash& variant_drv,
    const store::Hash& dataset, tensor::Index attack_size,
    attacks::AttackKind attack, const attacks::AttackParams& params,
    const std::string& name, const compress::FixedPointFormat& weight_format,
    const compress::FixedPointFormat& activation_format) {
  store::Derivation d("transfer-cell-int8",
                      name + "-" + attacks::attack_name(attack));
  set_attack_attrs(d, dataset, attack_size, attack, params);
  d.set("baseline", baseline_drv);
  d.set("variant", variant_drv);
  d.add_input(baseline_drv);
  d.add_input(variant_drv);
  // The formats the backend lowers to are measurement axes of their own:
  // the same variant checkpoint produces different integer logits under a
  // different activation grid, so the cell address must move with them.
  d.set("int8.weight", weight_format.to_string());
  d.set("int8.act", activation_format.to_string());
  return d;
}

namespace {
constexpr char kCellMagic[4] = {'C', 'O', 'N', 'C'};
constexpr std::uint32_t kCellVersion = 1;
}  // namespace

void save_scenario_point(const ScenarioPoint& p, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f.write(kCellMagic, sizeof(kCellMagic));
  f.write(reinterpret_cast<const char*>(&kCellVersion), sizeof(kCellVersion));
  const double values[4] = {p.base_accuracy, p.comp_to_comp, p.full_to_comp,
                            p.comp_to_full};
  f.write(reinterpret_cast<const char*>(values), sizeof(values));
  if (!f) throw std::runtime_error("scenario point write failed for " + path);
}

ScenarioPoint load_scenario_point(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  char magic[4];
  std::uint32_t version = 0;
  double values[4];
  f.read(magic, sizeof(magic));
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  f.read(reinterpret_cast<char*>(values), sizeof(values));
  if (!f || std::memcmp(magic, kCellMagic, 4) != 0 ||
      version != kCellVersion) {
    throw std::runtime_error(path + " is not a scenario-point artifact");
  }
  return ScenarioPoint{.base_accuracy = values[0],
                       .comp_to_comp = values[1],
                       .full_to_comp = values[2],
                       .comp_to_full = values[3]};
}

}  // namespace con::core
