// run_study: the configurable experiment driver.
//
// A single binary that runs any slice of the study from the command line —
// pick the network, compression family and level, attack and scenario set —
// and prints the scenario table plus perturbation statistics. This is the
// tool you would script to extend the paper's grid to new configurations.
//
//   ./run_study --network lenet5-small --compress prune --level 0.3 \
//               --attack ifgsm
//   ./run_study --compress quant --level 8 --attack deepfool
//   ./run_study --compress cluster --level 4 --attack ifgm
#include <cstdio>
#include <string>

#include "attacks/attack.h"
#include "compress/integer_model.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "nn/trainer.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/threadpool.h"
#include "util/table.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup obs_run = bench::parse_obs_flags(flags);
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(flags.get_int("threads", 0)));
  core::StudyConfig cfg;
  cfg.network = flags.get_string("network", "lenet5-small");
  cfg.train_size = flags.get_int("train-size", 2000);
  cfg.test_size = flags.get_int("test-size", 400);
  cfg.attack_size = flags.get_int("attack-size", 100);
  cfg.baseline_epochs = static_cast<int>(flags.get_int(
      "epochs", cfg.network.rfind("cifarnet", 0) == 0 ? 16 : 6));
  cfg.finetune.epochs = static_cast<int>(flags.get_int("finetune-epochs", 2));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  cfg.store_dir = flags.get_string("store", "");

  const std::string compress_kind = flags.get_string("compress", "prune");
  const double level = flags.get_double(
      "level", compress_kind == "prune" ? 0.3 : 8.0);
  const std::string attack_name = flags.get_string("attack", "ifgsm");
  flags.check_unused();
  if (compress_kind != "prune" && compress_kind != "quant" &&
      compress_kind != "cluster") {
    std::fprintf(stderr,
                 "unknown --compress '%s' (prune | quant | cluster)\n",
                 compress_kind.c_str());
    return 1;
  }

  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);
  std::printf("network   : %s (baseline accuracy %.3f)\n",
              cfg.network.c_str(), study.baseline_accuracy());

  const int bits = static_cast<int>(level);
  core::ModelArtifact compressed =
      compress_kind == "prune"   ? study.pruned_variant(level)
      : compress_kind == "quant" ? study.quantized_variant(bits)
                                 : study.clustered_variant(bits);
  if (compress_kind == "prune") {
    std::printf("compress  : pruned to density %.2f (achieved %.3f)\n", level,
                compressed.model.density());
  } else if (compress_kind == "quant") {
    std::printf("compress  : %d-bit fixed point, weights + activations\n",
                bits);
  } else {
    std::printf("compress  : %d-bit weight-clustering codebook\n", bits);
  }

  const attacks::AttackKind attack = attacks::attack_from_name(attack_name);
  const attacks::AttackParams params =
      attacks::paper_params(attack, cfg.network);
  std::printf("attack    : %s (eps %.3g, %d iterations)\n\n",
              attack_name.c_str(), params.epsilon, params.iterations);

  core::ScenarioPoint p = core::evaluate_scenarios_stored(
      study, compressed, core::CellKind::kFloat, attack, params);

  util::Table t({"measurement", "accuracy"});
  t.add_row({"compressed model, clean", util::format_double(p.base_accuracy, 3)});
  t.add_row({"scenario 1  COMP->COMP", util::format_double(p.comp_to_comp, 3)});
  t.add_row({"scenario 2  FULL->COMP", util::format_double(p.full_to_comp, 3)});
  t.add_row({"scenario 3  COMP->FULL", util::format_double(p.comp_to_full, 3)});
  std::printf("%s\n", t.to_string().c_str());

  // Deployed-integer axis: when the variant fits the int8 backend (quant
  // at <= 8 bits), repeat the scenario row against the model as it would
  // actually ship — int8 codes, int32 accumulate, requantise — instead of
  // the fake-quant float simulation the attacks were tuned on.
  if (compress::integer_executable(compressed.model)) {
    core::ScenarioPoint ip = core::evaluate_scenarios_stored(
        study, compressed, core::CellKind::kInt8, attack, params);
    util::Table it({"measurement (deployed int8)", "accuracy"});
    it.add_row({"integer model, clean",
                util::format_double(ip.base_accuracy, 3)});
    it.add_row({"scenario 1  COMP->COMP",
                util::format_double(ip.comp_to_comp, 3)});
    it.add_row({"scenario 2  FULL->COMP",
                util::format_double(ip.full_to_comp, 3)});
    it.add_row({"scenario 3  COMP->FULL",
                util::format_double(ip.comp_to_full, 3)});
    std::printf("%s\n", it.to_string().c_str());
  }

  // Perturbation statistics, the paper's sanity check on attack strength.
  tensor::Tensor adv = attacks::run_attack(
      attack, compressed.model, study.attack_set().images,
      study.attack_set().labels, params);
  attacks::PerturbationStats stats =
      attacks::perturbation_stats(study.attack_set().images, adv);
  std::printf("perturbations: mean l2 %.3f, mean linf %.3f, changed pixels "
              "%.0f%%\n",
              stats.mean_l2, stats.mean_linf,
              100.0 * stats.mean_l0_fraction);
  bench::finish_run(obs_run, "run_study");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
