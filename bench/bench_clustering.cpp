// Extension study: weight clustering (deep compression) as a third
// compression family in the paper's taxonomy.
//
// The paper evaluates pruning and fixed-point quantisation; Han et al.'s
// deep compression (cited in §2) adds codebook quantisation. This bench
// sweeps the codebook size and asks the same three-scenario question, plus
// the shipped-size win of cluster codes.
//
//   bench_clustering [--network lenet5-small]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/sweeps.h"
#include "sparse/sparse_model.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Extension: weight-clustering transferability (%s) ==\n",
              net.c_str());
  std::printf("dense baseline accuracy %.3f\n", study.baseline_accuracy());

  const attacks::AttackParams params =
      attacks::paper_params(attacks::AttackKind::kIfgsm, net);

  util::Table t({"codebook_bits", "base_acc", "comp_to_comp", "full_to_comp",
                 "comp_to_full"});
  std::vector<core::ScenarioPoint> points;
  const std::vector<int> bit_grid = {2, 4, 6, 8};
  for (int bits : bit_grid) {
    core::ModelArtifact clustered = study.clustered_variant(bits);
    core::ScenarioPoint p = core::evaluate_scenarios_stored(
        study, clustered, core::CellKind::kFloat, attacks::AttackKind::kIfgsm,
        params);
    points.push_back(p);
    t.add_row({std::to_string(bits), util::format_double(p.base_accuracy, 3),
               util::format_double(p.comp_to_comp, 3),
               util::format_double(p.full_to_comp, 3),
               util::format_double(p.comp_to_full, 3)});
  }
  bench::emit_table(t, "clustering_" + net,
                    "-- IFGSM scenarios across codebook sizes");

  // Expectations in the paper's frame: codebook quantisation perturbs
  // weights like fractional truncation does, so at usable codebook sizes
  // (>= 4 bits) transfer should persist.
  bench::shape_check(points.back().base_accuracy >
                         study.baseline_accuracy() - 0.05,
                     "8-bit codebook costs almost no accuracy");
  bench::shape_check(points.back().full_to_comp <
                         study.baseline_accuracy() - 0.15,
                     "attacks transfer onto clustered models (8-bit)");
  bench::finish_run(setup, "bench_clustering");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
