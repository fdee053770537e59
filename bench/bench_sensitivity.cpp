// Per-layer compression sensitivity (Han et al.'s methodology, applied to
// the study's networks): which layers tolerate pruning/quantisation, and
// which carry the accuracy?
//
//   bench_sensitivity [--network lenet5-small]
#include <cstdio>

#include "bench_common.h"
#include "core/sensitivity.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Per-layer compression sensitivity (%s) ==\n", net.c_str());

  const std::vector<double> densities = {0.5, 0.2, 0.05};
  double dense_acc = 0.0;
  auto prune_points = core::prune_sensitivity_scan(
      study.baseline(), study.test_set(), densities, &dense_acc);
  std::printf("all-dense accuracy %.3f\n", dense_acc);

  util::Table pt({"parameter", "d=0.5", "d=0.2", "d=0.05"});
  for (std::size_t i = 0; i < prune_points.size(); i += densities.size()) {
    pt.add_row({prune_points[i].parameter,
                util::format_double(prune_points[i].accuracy, 3),
                util::format_double(prune_points[i + 1].accuracy, 3),
                util::format_double(prune_points[i + 2].accuracy, 3)});
  }
  bench::emit_table(pt, "sensitivity_prune_" + net,
                    "-- accuracy when ONLY this layer is pruned (no "
                    "fine-tune)");

  const std::vector<int> bits = {8, 4, 2};
  auto quant_points = core::quant_sensitivity_scan(
      study.baseline(), study.test_set(), bits);
  util::Table qt({"parameter", "8-bit", "4-bit", "2-bit"});
  for (std::size_t i = 0; i < quant_points.size(); i += bits.size()) {
    qt.add_row({quant_points[i].parameter,
                util::format_double(quant_points[i].accuracy, 3),
                util::format_double(quant_points[i + 1].accuracy, 3),
                util::format_double(quant_points[i + 2].accuracy, 3)});
  }
  bench::emit_table(qt, "sensitivity_quant_" + net,
                    "-- accuracy when ONLY this layer's weights are "
                    "quantised");

  // Shape checks: compression at moderate levels is nearly free per layer;
  // extreme levels hurt at least one layer.
  double worst_mid = 1.0, worst_extreme = 1.0;
  for (std::size_t i = 0; i < prune_points.size(); i += densities.size()) {
    worst_mid = std::min(worst_mid, prune_points[i].accuracy);
    worst_extreme = std::min(worst_extreme, prune_points[i + 2].accuracy);
  }
  bench::shape_check(worst_mid > dense_acc - 0.2,
                     "every layer tolerates 50% single-layer pruning");
  bench::shape_check(worst_extreme < worst_mid,
                     "5% single-layer density is worse than 50%");
  bench::finish_run(setup, "bench_sensitivity");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
