// Figure 4 reproduction: CifarNet base accuracy vs adversarial accuracy for
// IFGSM and DeepFool across the pruned-model family.
//
// The paper plots each pruned model as a point (x = its clean accuracy,
// y = its accuracy under FULL->COMP attack) and reads off a mild protective
// bump at the preferred density. We print the scatter as a table sorted by
// density plus the detected preferred density.
//
//   bench_fig4_scatter [--network cifarnet-small]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/sweeps.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags, "cifarnet-small");
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  const double dense_acc = study.baseline_accuracy();
  std::printf("== Figure 4: %s base vs adversarial accuracy (pruning) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy: %.3f\n", dense_acc);

  const std::vector<double> densities = setup.paper_scale
      ? std::vector<double>{1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05}
      : std::vector<double>{1.0, 0.6, 0.3, 0.15, 0.05};
  auto family = core::build_pruned_family(study, densities);

  for (attacks::AttackKind kind :
       {attacks::AttackKind::kIfgsm, attacks::AttackKind::kDeepFool}) {
    const attacks::AttackParams params = attacks::paper_params(kind, net);
    auto points = core::sweep_scenarios(study, family, kind, params);
    util::Table t({"density", "base_acc(x)", "adv_acc_full_to_comp(y)"});
    std::vector<double> base_accs;
    for (std::size_t i = 0; i < densities.size(); ++i) {
      base_accs.push_back(points[i].base_accuracy);
      t.add_row_values({densities[i], points[i].base_accuracy,
                        points[i].full_to_comp},
                       3);
    }
    bench::emit_table(t, "fig4_" + net + "_" + attacks::attack_name(kind),
                      "-- Fig.4 scatter: " + attacks::attack_name(kind));

    const double preferred =
        core::preferred_density(densities, base_accs, dense_acc);
    std::printf("preferred density (knee of the base-accuracy curve): %.2f\n",
                preferred);
    // Paper claim: near the preferred density the FULL->COMP adversarial
    // accuracy is at least as high as at full density (mild protection).
    double adv_at_preferred = 0.0, adv_at_dense = 0.0;
    for (std::size_t i = 0; i < densities.size(); ++i) {
      if (densities[i] == preferred) adv_at_preferred = points[i].full_to_comp;
      if (densities[i] == 1.0) adv_at_dense = points[i].full_to_comp;
    }
    bench::shape_check(adv_at_preferred + 0.05 >= adv_at_dense,
                       "protective bump at the preferred density");
  }
  bench::finish_run(setup, "bench_fig4_scatter");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
