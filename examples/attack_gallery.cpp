// Attack gallery: every attack in the library against one trained model,
// with perturbation statistics (the paper's "sensible l2 and l0" check,
// §3.3) and an ASCII rendering of a clean digit next to its adversarial
// twin so you can see how imperceptible the perturbation is.
//
//   ./attack_gallery [--network lenet5-small] [--samples 60]
#include <cstdio>

#include "attacks/attack.h"
#include "core/study.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/threadpool.h"
#include "util/table.h"

using namespace con;

namespace {

// 16-level ASCII rendering of a single-channel image.
void print_image_pair(const tensor::Tensor& clean, const tensor::Tensor& adv,
                      tensor::Index h, tensor::Index w) {
  static const char* ramp = " .:-=+*#%@";
  auto level = [&](float v) {
    int idx = static_cast<int>(v * 9.99f);
    if (idx < 0) idx = 0;
    if (idx > 9) idx = 9;
    return ramp[idx];
  };
  std::printf("%-*s   %s\n", static_cast<int>(w), "clean", "adversarial");
  for (tensor::Index y = 0; y < h; ++y) {
    for (tensor::Index x = 0; x < w; ++x) {
      std::putchar(level(clean[y * w + x]));
    }
    std::printf("   ");
    for (tensor::Index x = 0; x < w; ++x) {
      std::putchar(level(adv[y * w + x]));
    }
    std::putchar('\n');
  }
}

}  // namespace

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup obs_run = bench::parse_obs_flags(flags);
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(flags.get_int("threads", 0)));
  core::StudyConfig cfg;
  cfg.network = flags.get_string("network", "lenet5-small");
  cfg.train_size = flags.get_int("train-size", 1500);
  cfg.test_size = flags.get_int("test-size", 300);
  cfg.attack_size = flags.get_int("samples", 60);
  cfg.baseline_epochs = static_cast<int>(flags.get_int("epochs", 6));
  cfg.store_dir = flags.get_string("store", "");
  flags.check_unused();

  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);
  nn::Sequential& model = study.baseline();
  const data::Dataset& probes = study.attack_set();
  const double clean_acc =
      nn::evaluate_accuracy(model, probes.images, probes.labels);
  std::printf("%s clean accuracy on %lld probes: %.3f\n\n",
              cfg.network.c_str(), static_cast<long long>(probes.size()),
              clean_acc);

  util::Table table({"attack", "eps", "iters", "adv_acc", "mean_l2",
                     "mean_linf", "l0_frac"});
  tensor::Tensor showcase_adv;
  for (attacks::AttackKind kind :
       {attacks::AttackKind::kFgm, attacks::AttackKind::kFgsm,
        attacks::AttackKind::kIfgm, attacks::AttackKind::kIfgsm,
        attacks::AttackKind::kDeepFool}) {
    const attacks::AttackParams params =
        attacks::paper_params(kind, cfg.network);
    tensor::Tensor adv = attacks::run_attack(kind, model, probes.images,
                                             probes.labels, params);
    const double acc = nn::evaluate_accuracy(model, adv, probes.labels);
    const attacks::PerturbationStats stats =
        attacks::perturbation_stats(probes.images, adv);
    table.add_row({attacks::attack_name(kind),
                   util::format_double(params.epsilon, 3),
                   std::to_string(params.iterations),
                   util::format_double(acc, 3),
                   util::format_double(stats.mean_l2, 3),
                   util::format_double(stats.mean_linf, 3),
                   util::format_double(stats.mean_l0_fraction, 3)});
    if (kind == attacks::AttackKind::kIfgsm) showcase_adv = adv;
  }
  std::printf("%s\n", table.to_string().c_str());

  if (cfg.network.rfind("lenet5", 0) == 0 && !showcase_adv.empty()) {
    // Show the first probe the IFGSM attack flips.
    const std::vector<int> clean_pred = nn::predict(model, probes.images);
    const std::vector<int> adv_pred = nn::predict(model, showcase_adv);
    for (tensor::Index i = 0; i < probes.size(); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (clean_pred[idx] == probes.labels[idx] &&
          adv_pred[idx] != probes.labels[idx]) {
        std::printf("sample %lld: true %d, clean pred %d, adversarial pred "
                    "%d\n",
                    static_cast<long long>(i), probes.labels[idx],
                    clean_pred[idx], adv_pred[idx]);
        print_image_pair(tensor::slice_batch(probes.images, i),
                         tensor::slice_batch(showcase_adv, i), 28, 28);
        break;
      }
    }
  }
  bench::finish_run(obs_run, "attack_gallery");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
