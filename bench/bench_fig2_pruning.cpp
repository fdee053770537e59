// Figure 2 reproduction: transferability properties for pruning.
//
// For each network and each attack (IFGSM, IFGM, DeepFool), sweeps pruning
// density and reports four series — the pruned model's clean accuracy
// (BASE ACC, the paper's blue line) and the three attack scenarios
// (COMP->COMP green, FULL->COMP cyan, COMP->FULL red). One table per panel,
// same axes as the paper's 2x3 figure.
//
//   bench_fig2_pruning [--network lenet5-small|cifarnet-small|lenet5|...]
//                      [--attacks ifgsm,ifgm,deepfool]
//                      [--both-networks] [--pruner dns|oneshot]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/sweeps.h"
#include "util/ascii_plot.h"

using namespace con;

namespace {

void run_panel(core::Study& study, attacks::AttackKind attack,
               const std::vector<double>& densities,
               std::vector<core::ModelArtifact>& family, bool one_shot) {
  const std::string net = study.config().network;
  const attacks::AttackParams params = attacks::paper_params(attack, net);
  auto points = core::sweep_scenarios(study, family, attack, params);

  util::Table t({"density", "base_acc", "comp_to_comp", "full_to_comp",
                 "comp_to_full"});
  std::vector<double> base_accs;
  for (std::size_t i = 0; i < densities.size(); ++i) {
    base_accs.push_back(points[i].base_accuracy);
    t.add_row_values({densities[i], points[i].base_accuracy,
                      points[i].comp_to_comp, points[i].full_to_comp,
                      points[i].comp_to_full},
                     3);
  }
  const std::string tag = std::string(one_shot ? "oneshot_" : "") + net + "_" +
                          attacks::attack_name(attack);
  bench::emit_table(t, "fig2_" + tag,
                    "-- Fig.2 panel: " + net + " / " +
                        attacks::attack_name(attack) +
                        (one_shot ? " (one-shot pruning ablation)" : ""));

  // Terminal rendering of the panel, same series/colors as the paper
  // (base=blue, comp->comp=green, full->comp=cyan, comp->full=red).
  std::vector<util::Series> lines(4);
  lines[0].label = "base";
  lines[1].label = "comp->comp";
  lines[2].label = "full->comp";
  lines[3].label = "comp->full";
  for (const auto& p : points) {
    lines[0].ys.push_back(p.base_accuracy);
    lines[1].ys.push_back(p.comp_to_comp);
    lines[2].ys.push_back(p.full_to_comp);
    lines[3].ys.push_back(p.comp_to_full);
  }
  std::printf("%s", util::render_plot(densities, lines).c_str());

  // Shape checks against the paper's qualitative findings (§4.1).
  const double dense_acc = study.baseline_accuracy();
  // (1) at high density, samples from compressed models transfer to the
  //     baseline: comp->full accuracy far below clean accuracy.
  bench::shape_check(points.front().comp_to_full < dense_acc - 0.15,
                     "high-density adversarial samples transfer to baseline");
  // (2) at extreme sparsity the transfer weakens: comp->full accuracy rises
  //     relative to the high-density point (the red line's climb near 0).
  bench::shape_check(
      points.back().comp_to_full >= points.front().comp_to_full - 0.02,
      "extreme sparsity weakens comp->full transfer");
  // (3) extreme sparsity costs clean accuracy (the blue line's fall).
  bench::shape_check(points.back().base_accuracy < dense_acc - 0.05,
                     "extreme sparsity costs clean accuracy");
  // (4) self-attack stays effective across the sweep (green line low).
  double worst_self = 1.0;
  for (const auto& p : points) worst_self = std::min(worst_self, 1.0 - p.comp_to_comp);
  bench::shape_check(worst_self > 0.2, "self-attack remains effective");
}

}  // namespace

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  const bool both = flags.get_bool("both-networks", false);
  const bool one_shot = flags.get_string("pruner", "dns") == "oneshot";
  const std::vector<std::string> attack_list =
      flags.get_list<std::string>("attacks", {"ifgsm", "ifgm", "deepfool"});
  const std::vector<double> densities = flags.get_list<double>(
      "densities", setup.paper_scale
                       ? std::vector<double>{1.0, 0.8, 0.6, 0.4, 0.3, 0.2,
                                             0.1, 0.05, 0.03}
                       : std::vector<double>{1.0, 0.6, 0.3, 0.1, 0.03});
  flags.check_unused();

  std::vector<std::string> networks = {setup.study.network};
  if (both) {
    networks = {"lenet5-small", "cifarnet-small"};
    if (setup.paper_scale) networks = {"lenet5", "cifarnet"};
  }

  std::printf("== Figure 2: transferability under pruning (%s) ==\n",
              one_shot ? "one-shot" : "dynamic network surgery");
  for (const std::string& net : networks) {
    core::StudyConfig cfg = bench::for_network(setup, net);
    core::Study study(cfg);
    bench::record_study(setup, study);
    std::printf("\nnetwork %s: baseline accuracy %.3f\n", net.c_str(),
                study.baseline_accuracy());
    auto family = core::build_pruned_family(study, densities, one_shot);
    for (const std::string& a : attack_list) {
      run_panel(study, attacks::attack_from_name(a), densities, family,
                one_shot);
    }
  }
  bench::finish_run(setup, "bench_fig2_pruning");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
