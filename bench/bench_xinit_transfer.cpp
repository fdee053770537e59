// §3.3 cross-initialisation check: how transferable are DeepFool samples
// between two models of identical architecture trained from different
// random initialisations? The paper measures 7% for LeNet5 and 60% for
// CifarNet and uses the numbers to argue its attacks probe the *lower
// bound* of transferability.
//
//   bench_xinit_transfer [--network lenet5-small] [--both-networks]
#include <cstdio>

#include "attacks/params.h"
#include "bench_common.h"
#include "core/cross_init.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  const bool both = flags.get_bool("both-networks", true);
  flags.check_unused();

  std::vector<std::string> networks = {setup.study.network};
  if (both) {
    networks = {"lenet5-small", "cifarnet-small"};
    if (setup.paper_scale) networks = {"lenet5", "cifarnet"};
  }

  std::printf("== Cross-initialisation DeepFool transferability (§3.3) ==\n");
  util::Table t({"network", "acc_A", "acc_B", "transfer_A_to_B",
                 "transfer_B_to_A"});
  double lenet_rate = -1.0, cifar_rate = -1.0;
  for (const std::string& net : networks) {
    core::StudyConfig cfg = bench::for_network(setup, net);
    core::Study study(cfg);
    bench::record_study(setup, study);
    const attacks::AttackParams params =
        attacks::paper_params(attacks::AttackKind::kDeepFool, net);
    core::CrossInitResult r = core::cross_init_transferability(
        study, attacks::AttackKind::kDeepFool, params, /*seed_a=*/1001,
        /*seed_b=*/2002);
    t.add_row({net, util::format_double(r.accuracy_a, 3),
               util::format_double(r.accuracy_b, 3),
               util::format_double(r.transfer_a_to_b, 3),
               util::format_double(r.transfer_b_to_a, 3)});
    const double rate = (r.transfer_a_to_b + r.transfer_b_to_a) / 2.0;
    if (net.rfind("lenet5", 0) == 0) lenet_rate = rate;
    if (net.rfind("cifarnet", 0) == 0) cifar_rate = rate;
  }
  bench::emit_table(t, "xinit_transfer",
                    "-- DeepFool transfer between independent trainings");
  std::printf("paper reference: LeNet5 7%%, CifarNet 60%%\n");
  if (lenet_rate >= 0.0) {
    bench::shape_check(lenet_rate < 0.6,
                       "DeepFool cross-init transfer is far from total "
                       "(lower-bound attack)");
  }
  if (lenet_rate >= 0.0 && cifar_rate >= 0.0) {
    bench::shape_check(cifar_rate > lenet_rate - 0.05,
                       "CIFAR-class network transfers at least as much as "
                       "the MNIST-class network");
  }
  bench::finish_run(setup, "bench_xinit_transfer");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
