// Feature-space similarity vs transferability.
//
// §4.1 hypothesises that pruning preserves the baseline's feature space and
// that this is *why* adversarial samples transfer (citing Tramèr et al.).
// This bench measures both quantities across a density sweep — mean linear
// CKA between baseline and pruned model, and the COMP->FULL attack success —
// and checks the predicted correlation: where similarity is high, transfer
// is strong (adversarial accuracy on the baseline is low).
//
//   bench_feature_space [--network lenet5-small]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/feature_space.h"
#include "core/sweeps.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Feature-space similarity vs transferability (%s) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());

  const std::vector<double> densities = {0.8, 0.4, 0.2, 0.1, 0.03};
  auto family = core::build_pruned_family(study, densities);
  const attacks::AttackParams params =
      attacks::paper_params(attacks::AttackKind::kIfgsm, net);
  auto points = core::sweep_scenarios(study, family,
                                      attacks::AttackKind::kIfgsm, params);

  const tensor::Tensor probe = study.attack_set().take(24).images;
  util::Table t({"density", "mean_cka", "comp_to_full_adv_acc",
                 "transfer_strength"});
  std::vector<double> ckas, strengths;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    const double cka =
        core::mean_feature_similarity(study.baseline(), family[i].model, probe);
    // transfer strength: how far below clean accuracy the attack drags the
    // baseline (1 = total transfer, 0 = none)
    const double strength =
        1.0 - points[i].comp_to_full / std::max(1e-9, study.baseline_accuracy());
    ckas.push_back(cka);
    strengths.push_back(strength);
    t.add_row_values({densities[i], cka, points[i].comp_to_full, strength}, 3);
  }
  bench::emit_table(t, "feature_space_" + net,
                    "-- CKA similarity vs IFGSM transfer strength");

  // Rank correlation between similarity and transfer strength.
  double correlation = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < ckas.size(); ++i) {
    for (std::size_t j = i + 1; j < ckas.size(); ++j) {
      const double a = (ckas[i] - ckas[j]) * (strengths[i] - strengths[j]);
      correlation += a > 0 ? 1.0 : (a < 0 ? -1.0 : 0.0);
      ++pairs;
    }
  }
  correlation /= pairs;
  std::printf("Kendall-style sign correlation(similarity, transfer): %.2f\n",
              correlation);
  bench::shape_check(correlation > 0.0,
                     "similar feature spaces transfer more (Tramèr et al. "
                     "prediction, §4.1)");
  bench::shape_check(ckas.front() > ckas.back(),
                     "heavier pruning diverges the feature space");
  bench::finish_run(setup, "bench_feature_space");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
