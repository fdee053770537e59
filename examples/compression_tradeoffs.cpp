// Compression trade-off explorer: sweep density and bitwidth on one model
// and print the (accuracy, robustness) frontier — the deployment decision
// the paper's title asks about. "To compress or not to compress?" comes
// down to these two columns.
//
//   ./compression_tradeoffs [--network lenet5-small] [--attack ifgsm]
#include <cstdio>

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
  cfg.train_size = flags.get_int("train-size", 1500);
  cfg.test_size = flags.get_int("test-size", 300);
  cfg.attack_size = flags.get_int("attack-size", 80);
  cfg.baseline_epochs = static_cast<int>(flags.get_int("epochs", 6));
  cfg.finetune.epochs = static_cast<int>(flags.get_int("finetune-epochs", 2));
  cfg.store_dir = flags.get_string("store", "");
  const attacks::AttackKind attack =
      attacks::attack_from_name(flags.get_string("attack", "ifgsm"));
  flags.check_unused();

  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);
  const double dense_acc = study.baseline_accuracy();
  const attacks::AttackParams params =
      attacks::paper_params(attack, cfg.network);

  std::printf("baseline accuracy %.3f; attack %s (eps %.3f, %d iters)\n\n",
              dense_acc, attacks::attack_name(attack).c_str(), params.epsilon,
              params.iterations);

  // --- pruning frontier ---
  const std::vector<double> densities = {0.8, 0.5, 0.3, 0.15, 0.05};
  auto pruned = core::build_pruned_family(study, densities);
  auto ppoints = core::sweep_scenarios(study, pruned, attack, params);
  util::Table pt({"density", "clean_acc", "self_attack_acc",
                  "survives_from_cloud", "leaks_to_cloud"});
  std::vector<double> base_accs;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    base_accs.push_back(ppoints[i].base_accuracy);
    pt.add_row({util::format_double(densities[i], 2),
                util::format_double(ppoints[i].base_accuracy, 3),
                util::format_double(ppoints[i].comp_to_comp, 3),
                util::format_double(ppoints[i].full_to_comp, 3),
                util::format_double(ppoints[i].comp_to_full, 3)});
  }
  std::printf("pruning frontier:\n%s\n", pt.to_string().c_str());
  std::printf("preferred density (accuracy knee): %.2f\n\n",
              core::preferred_density(densities, base_accs, dense_acc));

  // --- quantisation frontier ---
  const std::vector<int> bits = {16, 8, 4};
  auto quant = core::build_quantized_family(study, bits);
  auto qpoints = core::sweep_scenarios(study, quant, attack, params);
  util::Table qt({"bitwidth", "clean_acc", "self_attack_acc",
                  "survives_from_cloud", "leaks_to_cloud"});
  for (std::size_t i = 0; i < bits.size(); ++i) {
    qt.add_row({std::to_string(bits[i]),
                util::format_double(qpoints[i].base_accuracy, 3),
                util::format_double(qpoints[i].comp_to_comp, 3),
                util::format_double(qpoints[i].full_to_comp, 3),
                util::format_double(qpoints[i].comp_to_full, 3)});
  }
  std::printf("quantisation frontier:\n%s\n", qt.to_string().c_str());
  std::printf(
      "Verdict per the paper: compression buys efficiency, not security —\n"
      "expect only marginal robustness at extreme sparsity/bitwidths, and\n"
      "only against gradient-magnitude attacks.\n");
  bench::finish_run(obs_run, "compression_tradeoffs");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
