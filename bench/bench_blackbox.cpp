// Black-box extension: is a compressed deployment safer against an
// attacker with ONLY query access?
//
// Papernot et al. 2017 (cited in §2.3) showed label-query attackers can
// train a substitute and transfer white-box attacks from it. The paper's
// taxonomy assumes the attacker holds a model of the family; this bench
// drops that assumption and measures the remaining attack surface: substitute
// trained against (a) the baseline, (b) a pruned deployment, then IFGSM
// samples from the substitute applied to both victims. NES score-based
// attacks are reported alongside.
//
//   bench_blackbox [--network lenet5-small]
#include <cstdio>

#include "attacks/attack.h"
#include "attacks/blackbox.h"
#include "bench_common.h"
#include "compress/finetune.h"
#include "models/model_zoo.h"
#include "nn/loss.h"
#include "nn/trainer.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  const int nes_probes = static_cast<int>(flags.get_int("nes-probes", 20));
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Black-box attacks vs compressed deployments (%s) ==\n",
              net.c_str());
  std::printf("baseline accuracy %.3f\n", study.baseline_accuracy());

  nn::Sequential pruned = study.pruned_variant(0.3).model;

  const data::Dataset& probes = study.attack_set();
  const attacks::AttackParams params = attacks::paper_params(
      attacks::AttackKind::kIfgsm, net);

  util::Table t({"victim", "clean_acc", "substitute_agree", "queries",
                 "ifgsm_via_substitute"});
  auto run_substitute = [&](const char* who, nn::Sequential& victim) {
    attacks::ModelOracle oracle(victim);
    attacks::SubstituteConfig sc;
    sc.make_substitute = [&] {
      // the attacker guesses a (different-seed) architecture of the family
      return models::make_model(setup.study.network, 9999);
    };
    sc.augmentation_rounds = 4;
    // seed set: a handful of in-distribution images (attacker-collected)
    tensor::Tensor seeds = study.test_set().take(40).images;
    attacks::SubstituteResult sub = attacks::train_substitute(oracle, seeds, sc);
    tensor::Tensor adv = attacks::run_attack(
        attacks::AttackKind::kIfgsm, sub.substitute, probes.images,
        probes.labels, params);
    const double clean =
        nn::evaluate_accuracy(victim, probes.images, probes.labels);
    const double attacked = nn::evaluate_accuracy(victim, adv, probes.labels);
    t.add_row({who, util::format_double(clean, 3),
               util::format_double(sub.agreement, 3),
               std::to_string(sub.oracle_queries),
               util::format_double(attacked, 3)});
    return clean - attacked;
  };

  const double drop_baseline = run_substitute("baseline", study.baseline());
  const double drop_pruned = run_substitute("pruned d=0.3", pruned);
  bench::emit_table(t, "blackbox_substitute_" + net,
                    "-- substitute-transfer attack (label queries only)");
  bench::shape_check(drop_baseline > 0.1,
                     "substitute transfer hurts the baseline");
  bench::shape_check(drop_pruned > 0.05,
                     "pruning does not stop the substitute attack");

  // NES score-based attack on a small probe subset (query-expensive).
  data::Dataset nes_set = study.test_set().take(nes_probes);
  auto prob_oracle = [&](const tensor::Tensor& x) {
    return nn::softmax(study.baseline().forward(x, false));
  };
  attacks::NesParams np;
  tensor::Tensor nes_adv =
      attacks::nes_attack(prob_oracle, nes_set.images, nes_set.labels, np);
  const double nes_clean = nn::evaluate_accuracy(
      study.baseline(), nes_set.images, nes_set.labels);
  const double nes_attacked =
      nn::evaluate_accuracy(study.baseline(), nes_adv, nes_set.labels);
  std::printf("NES score-based attack on the baseline: clean %.3f -> "
              "adversarial %.3f (%d probes, %d queries/probe/iter)\n",
              nes_clean, nes_attacked, nes_probes, 2 * np.samples);
  bench::shape_check(nes_attacked < nes_clean,
                     "gradient-free NES attack degrades accuracy");
  bench::finish_run(setup, "bench_blackbox");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
