// Table 1 reproduction: the attack hyper-parameters used throughout the
// study, as encoded in attacks::paper_params. This bench both prints the
// table and asserts the values so a drift in the defaults fails loudly in
// the bench loop.
#include <cstdio>
#include <cstdlib>

#include "attacks/params.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/table.h"

using namespace con;

namespace {

void require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "TABLE1 MISMATCH: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_obs_flags(flags);
  flags.check_unused();
  std::printf("== Table 1: attack hyper-parameters ==\n");
  util::Table t({"network", "ifgsm_eps", "ifgsm_i", "ifgm_eps", "ifgm_i",
                 "deepfool_eps", "deepfool_i"});
  for (const char* net : {"lenet5", "cifarnet"}) {
    const auto ifgsm = attacks::paper_params(attacks::AttackKind::kIfgsm, net);
    const auto ifgm = attacks::paper_params(attacks::AttackKind::kIfgm, net);
    const auto df = attacks::paper_params(attacks::AttackKind::kDeepFool, net);
    t.add_row({net, util::format_double(ifgsm.epsilon, 2),
               std::to_string(ifgsm.iterations),
               util::format_double(ifgm.epsilon, 2),
               std::to_string(ifgm.iterations),
               util::format_double(df.epsilon, 2),
               std::to_string(df.iterations)});
  }
  std::printf("%s", t.to_string().c_str());

  // Paper values, verbatim.
  const auto l_ifgsm = attacks::paper_params(attacks::AttackKind::kIfgsm,
                                             "lenet5");
  require(l_ifgsm.epsilon == 0.02f && l_ifgsm.iterations == 12,
          "LeNet5 IFGSM must be (0.02, 12)");
  const auto l_ifgm = attacks::paper_params(attacks::AttackKind::kIfgm,
                                            "lenet5");
  require(l_ifgm.epsilon == 10.0f && l_ifgm.iterations == 5,
          "LeNet5 IFGM must be (10.0, 5)");
  const auto l_df = attacks::paper_params(attacks::AttackKind::kDeepFool,
                                          "lenet5");
  require(l_df.epsilon == 0.01f && l_df.iterations == 5,
          "LeNet5 DeepFool must be (0.01, 5)");
  const auto c_ifgsm = attacks::paper_params(attacks::AttackKind::kIfgsm,
                                             "cifarnet");
  require(c_ifgsm.epsilon == 0.02f && c_ifgsm.iterations == 12,
          "CifarNet IFGSM must be (0.02, 12)");
  const auto c_ifgm = attacks::paper_params(attacks::AttackKind::kIfgm,
                                            "cifarnet");
  require(c_ifgm.epsilon == 0.02f && c_ifgm.iterations == 12,
          "CifarNet IFGM must be (0.02, 12)");
  const auto c_df = attacks::paper_params(attacks::AttackKind::kDeepFool,
                                          "cifarnet");
  require(c_df.epsilon == 0.01f && c_df.iterations == 3,
          "CifarNet DeepFool must be (0.01, 3)");
  std::printf("all Table 1 values verified against the paper\n");
  bench::finish_run(setup, "bench_table1_params");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
