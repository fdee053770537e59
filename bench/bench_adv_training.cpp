// Extension study: does adversarial training survive compression?
//
// The paper's related work notes that training on adversarial samples
// hardens a model, and its conclusion warns that compression "may not
// provide much in the way of additional safety or security". This bench
// combines the two: adversarially train a baseline, compress it (prune and
// quantise), and measure whether the robustness survives the compression
// pipeline — an experiment the paper motivates but does not run.
//
//   bench_adv_training [--network lenet5-small]
#include <cstdio>

#include "bench_common.h"
#include "compress/finetune.h"
#include "core/defense.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Extension: adversarial training x compression (%s) ==\n",
              net.c_str());

  // Robust baseline: clean pre-training (the Study baseline) + FGSM
  // adversarial fine-tuning.
  nn::Sequential robust = study.baseline().clone();
  core::AdvTrainConfig ac;
  ac.train.epochs = setup.study.baseline_epochs;
  ac.train.batch_size = setup.study.batch_size;
  ac.attack = attacks::AttackKind::kFgsm;
  ac.attack_params = attacks::AttackParams{.epsilon = 0.05f, .iterations = 1};
  ac.adversarial_fraction = 0.5;
  core::adversarial_train(robust, study.train_set(), ac);

  const attacks::AttackParams eval_params{.epsilon = 0.05f, .iterations = 1};
  const attacks::AttackKind eval_attack = attacks::AttackKind::kFgsm;

  auto report = [&](const char* who, nn::Sequential& m) {
    core::RobustnessReport r = core::measure_robustness(
        m, study.attack_set(), eval_attack, eval_params);
    std::printf("  %-28s clean %.3f  adv %.3f  fooling %.3f\n", who,
                r.clean_accuracy, r.adversarial_accuracy, r.fooling_rate);
    return r;
  };

  std::printf("FGSM(0.05) robustness:\n");
  core::RobustnessReport base_rep = report("clean baseline", study.baseline());
  core::RobustnessReport robust_rep = report("adversarially trained", robust);

  // Compress the robust model both ways.
  nn::Sequential robust_pruned = compress::make_pruned_model(
      robust, study.train_set(), 0.3, setup.study.finetune);
  nn::Sequential robust_quant = compress::make_quantized_model(
      robust, study.train_set(), 8, setup.study.finetune);
  core::RobustnessReport pruned_rep =
      report("robust -> pruned d=0.3", robust_pruned);
  core::RobustnessReport quant_rep =
      report("robust -> quantised 8b", robust_quant);

  util::Table t({"model", "clean_acc", "adv_acc", "fooling_rate"});
  auto add = [&](const char* n, const core::RobustnessReport& r) {
    t.add_row({n, util::format_double(r.clean_accuracy, 3),
               util::format_double(r.adversarial_accuracy, 3),
               util::format_double(r.fooling_rate, 3)});
  };
  add("clean_baseline", base_rep);
  add("adv_trained", robust_rep);
  add("adv_trained_pruned_0.3", pruned_rep);
  add("adv_trained_quant_8b", quant_rep);
  bench::emit_table(t, "adv_training_" + net,
                    "-- robustness through the compression pipeline");

  bench::shape_check(robust_rep.fooling_rate < base_rep.fooling_rate - 0.1,
                     "adversarial training reduces the fooling rate");
  // The interesting question: compression fine-tunes on CLEAN data, so some
  // robustness should wash out — quantify rather than assert direction.
  std::printf("robustness retained after pruning: %.0f%%, after "
              "quantisation: %.0f%%\n",
              100.0 * (1.0 - pruned_rep.fooling_rate) /
                  std::max(1e-9, 1.0 - robust_rep.fooling_rate),
              100.0 * (1.0 - quant_rep.fooling_rate) /
                  std::max(1e-9, 1.0 - robust_rep.fooling_rate));
  bench::finish_run(setup, "bench_adv_training");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
