// Ablation: dynamic network surgery vs one-shot (Han-style) pruning.
//
// DESIGN.md calls out the DNS recovery mechanism as a design choice worth
// isolating: the paper uses DNS (Guo et al.) because it reaches higher
// compression at equal accuracy than one-shot pruning (Han et al.). This
// bench fine-tunes both pruner variants over a density sweep and reports
// clean accuracy plus IFGSM scenario-2 robustness side by side.
//
//   bench_ablation_pruner [--network lenet5-small]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/sweeps.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  // The DNS-vs-one-shot gap is a fine-tuning-length effect (Guo et al. run
  // hundreds of epochs); give this ablation a bigger budget than the
  // default sweeps so the comparison is not noise-dominated.
  setup.study.finetune.epochs = std::max(setup.study.finetune.epochs, 4);

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Ablation: DNS vs one-shot pruning on %s ==\n", net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());

  const std::vector<double> densities = {0.5, 0.2, 0.1, 0.05};
  const attacks::AttackParams params =
      attacks::paper_params(attacks::AttackKind::kIfgsm, net);

  auto dns_family =
      core::build_pruned_family(study, densities, /*one_shot=*/false);
  auto oneshot_family =
      core::build_pruned_family(study, densities, /*one_shot=*/true);
  auto dns_points = core::sweep_scenarios(study, dns_family,
                                          attacks::AttackKind::kIfgsm, params);
  auto oneshot_points = core::sweep_scenarios(
      study, oneshot_family, attacks::AttackKind::kIfgsm, params);

  util::Table t({"density", "dns_clean_acc", "oneshot_clean_acc",
                 "dns_full_to_comp", "oneshot_full_to_comp"});
  double dns_adv = 0.0, oneshot_adv = 0.0;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    dns_adv += dns_points[i].base_accuracy;
    oneshot_adv += oneshot_points[i].base_accuracy;
    t.add_row_values({densities[i], dns_points[i].base_accuracy,
                      oneshot_points[i].base_accuracy,
                      dns_points[i].full_to_comp,
                      oneshot_points[i].full_to_comp},
                     3);
  }
  bench::emit_table(t, "ablation_pruner_" + net,
                    "-- DNS vs one-shot at matched densities");
  std::printf("mean clean accuracy: DNS %.3f, one-shot %.3f\n",
              dns_adv / densities.size(), oneshot_adv / densities.size());
  // Guo et al.'s full claim (DNS strictly dominates) emerges only with
  // hundreds of fine-tuning epochs; at this budget we check the weaker,
  // verifiable form: the recovery mechanism does not cost accuracy overall.
  bench::shape_check(dns_adv >= oneshot_adv - 0.1 * densities.size(),
                     "DNS recovery is competitive with one-shot at short "
                     "fine-tuning budgets");
  bench::finish_run(setup, "bench_ablation_pruner");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
