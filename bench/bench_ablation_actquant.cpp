// Ablation: weight-only vs weight+activation quantisation.
//
// §4.2 of the paper attributes the marginal defensive effect of aggressive
// quantisation to *activation* clipping ("clipping the activation values
// forces the attacker to find more subtle ways of achieving differential
// activation"). This bench isolates the claim: quantise only the weights,
// then weights+activations, and compare the scenario accuracies at 4 bits.
//
//   bench_ablation_actquant [--network lenet5-small]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/sweeps.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Ablation: weight-only vs weight+activation quantisation "
              "(%s) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());

  const std::vector<int> bitwidths = {4, 8};
  const attacks::AttackParams params =
      attacks::paper_params(attacks::AttackKind::kIfgsm, net);

  auto both_family = core::build_quantized_family(
      study, bitwidths, /*quantize_activations=*/true);
  auto weights_family = core::build_quantized_family(
      study, bitwidths, /*quantize_activations=*/false);
  auto both_points = core::sweep_scenarios(study, both_family,
                                           attacks::AttackKind::kIfgsm, params);
  auto weights_points = core::sweep_scenarios(
      study, weights_family, attacks::AttackKind::kIfgsm, params);

  util::Table t({"bitwidth", "variant", "base_acc", "comp_to_comp",
                 "full_to_comp", "comp_to_full"});
  for (std::size_t i = 0; i < bitwidths.size(); ++i) {
    t.add_row({std::to_string(bitwidths[i]), "weights+acts",
               util::format_double(both_points[i].base_accuracy, 3),
               util::format_double(both_points[i].comp_to_comp, 3),
               util::format_double(both_points[i].full_to_comp, 3),
               util::format_double(both_points[i].comp_to_full, 3)});
    t.add_row({std::to_string(bitwidths[i]), "weights-only",
               util::format_double(weights_points[i].base_accuracy, 3),
               util::format_double(weights_points[i].comp_to_comp, 3),
               util::format_double(weights_points[i].full_to_comp, 3),
               util::format_double(weights_points[i].comp_to_full, 3)});
  }
  bench::emit_table(t, "ablation_actquant_" + net,
                    "-- quantisation variants under IFGSM");
  // The paper's §4.2 mechanism: at 4 bits, the full (weights+activations)
  // quantisation blocks cross-boundary transfer at least as well as
  // weight-only quantisation.
  bench::shape_check(
      both_points[0].comp_to_full + 0.03 >= weights_points[0].comp_to_full,
      "activation clipping contributes to the 4-bit defence (comp->full)");
  bench::shape_check(
      both_points[0].full_to_comp + 0.03 >= weights_points[0].full_to_comp,
      "activation clipping contributes to the 4-bit defence (full->comp)");
  bench::finish_run(setup, "bench_ablation_actquant");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
