// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts the same sizing flags so the default `for b in
// build/bench/*` loop finishes in minutes on one CPU core (small model
// variants, reduced grids) while `--network lenet5 --paper-scale` runs the
// full configuration. Trained baselines, compressed variants and transfer
// cells live in the content-addressed artifact store (--store DIR,
// default <artifacts>/store) and are shared across benches via core::Study.
#pragma once

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/study.h"
#include "io/checkpoint.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace con::bench {

struct BenchSetup {
  core::StudyConfig study;
  bool paper_scale = false;
  bool epochs_explicit = false;  // --epochs was given on the command line
  // Observability flags (see DESIGN.md §6): --trace <path> enables span
  // recording and exports a Chrome trace on finish_run(); --manifest writes
  // artifacts/<name>_manifest.json.
  std::string trace_path;
  bool write_manifest = false;
  obs::RunManifest run;
  util::Timer run_timer;
};

// Parse only the observability flags (--trace <path>, --manifest) — the
// subset shared by every binary, including the examples and
// google-benchmark runners that do not take the study sizing flags.
inline BenchSetup parse_obs_flags(util::CliFlags& flags) {
  BenchSetup setup;
  setup.trace_path = flags.get_string("trace", "");
  setup.write_manifest = flags.get_bool("manifest", false);
  if (!setup.trace_path.empty()) obs::set_tracing(true);
  obs::set_thread_name("main");
  return setup;
}

// Record the resolved study configuration into the manifest's config
// section.
inline void record_study_config(BenchSetup& setup,
                                const core::StudyConfig& cfg) {
  setup.run.config.emplace_back("network", obs::Json(cfg.network));
  setup.run.config.emplace_back(
      "train_size", obs::Json(static_cast<std::int64_t>(cfg.train_size)));
  setup.run.config.emplace_back(
      "test_size", obs::Json(static_cast<std::int64_t>(cfg.test_size)));
  setup.run.config.emplace_back(
      "attack_size", obs::Json(static_cast<std::int64_t>(cfg.attack_size)));
  setup.run.config.emplace_back(
      "epochs", obs::Json(static_cast<std::int64_t>(cfg.baseline_epochs)));
  setup.run.config.emplace_back(
      "finetune_epochs",
      obs::Json(static_cast<std::int64_t>(cfg.finetune.epochs)));
  setup.run.config.emplace_back(
      "batch_size", obs::Json(static_cast<std::int64_t>(cfg.batch_size)));
  setup.run.config.emplace_back(
      "seed", obs::Json(static_cast<std::int64_t>(cfg.seed)));
}

// Parse the common flags: --network, --train-size, --test-size,
// --attack-size, --epochs, --finetune-epochs, --paper-scale, --seed,
// --threads (0 = hardware concurrency; results are identical for any
// value, only wall-clock changes), plus the observability flags --trace
// and --manifest.
inline BenchSetup parse_common(util::CliFlags& flags,
                               const std::string& default_network =
                                   "lenet5-small") {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(flags.get_int("threads", 0)));
  BenchSetup setup = parse_obs_flags(flags);
  setup.paper_scale = flags.get_bool("paper-scale", false);
  setup.epochs_explicit = flags.has("epochs");
  core::StudyConfig& cfg = setup.study;
  cfg.network = flags.get_string("network", default_network);
  const bool cifar = cfg.network.rfind("cifarnet", 0) == 0;
  if (setup.paper_scale) {
    cfg.train_size = 8000;
    cfg.test_size = 2000;
    cfg.attack_size = 500;
    cfg.baseline_epochs = cifar ? 30 : 20;
    cfg.finetune.epochs = 6;
  } else {
    cfg.train_size = 2000;
    cfg.test_size = 400;
    cfg.attack_size = 100;
    cfg.baseline_epochs = cifar ? 16 : 6;
    cfg.finetune.epochs = 2;
  }
  cfg.train_size = flags.get_int("train-size", cfg.train_size);
  cfg.test_size = flags.get_int("test-size", cfg.test_size);
  cfg.attack_size = flags.get_int("attack-size", cfg.attack_size);
  cfg.baseline_epochs =
      static_cast<int>(flags.get_int("epochs", cfg.baseline_epochs));
  cfg.finetune.epochs = static_cast<int>(
      flags.get_int("finetune-epochs", cfg.finetune.epochs));
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  // --store DIR points the run at a shared artifact store; unset, the
  // study resolves $CON_STORE_DIR or <artifacts>/store.
  cfg.store_dir = flags.get_string("store", "");
  record_study_config(setup, cfg);
  setup.run.config.emplace_back("paper_scale", obs::Json(setup.paper_scale));
  return setup;
}

// Record the store identity of the baseline a Study resolved to, so the
// manifest pins down exactly which artifacts the run used: the derivation
// hash covers the full input closure (network, seed, sizes, epochs, batch
// size, dataset content and initial weights). Keyed per network:
// multi-network benches construct one Study per member of their loop.
// Realises the baseline if it has not been yet.
inline void record_study(BenchSetup& setup, core::Study& study) {
  setup.run.config.emplace_back(
      "baseline_drv." + study.config().network,
      obs::Json(study.baseline_drv_hash().hex()));
  setup.run.config.emplace_back("store_root." + study.config().network,
                                obs::Json(study.store().root()));
}

// End-of-run hook: every bench/example calls this once, after its tables.
// Writes the Chrome trace (--trace) and the JSON manifest (--manifest);
// costs nothing when both are off.
inline void finish_run(BenchSetup& setup, const std::string& name) {
  setup.run.name = name;
  setup.run.wall_time_s = setup.run_timer.seconds();
  setup.run.threads = util::ThreadPool::global().size();
  // Which micro-kernel ISA served this run. Observational only — every
  // table gives the same bits — but recorded unconditionally (and required
  // by tools/obs_validate): a perf number without its kernel ISA is not
  // comparable.
  setup.run.config.emplace_back(
      "kernel_isa", obs::Json(std::string(tensor::kernels::isa_name(
                        tensor::kernels::active_isa()))));
  // Ensure the store counters exist in every manifest (value 0 when the
  // binary never touched a store) so tools/obs_validate can require the
  // section unconditionally.
  obs::counter("store.hit").add(0);
  obs::counter("store.miss").add(0);
  obs::counter("store.evict").add(0);
  obs::counter("store.gc_bytes").add(0);
  setup.run.extra_counters.emplace_back("tensor.buffer_allocations",
                                        tensor::Tensor::buffer_allocations());
  if (setup.write_manifest) {
    const std::string path = obs::write_manifest(setup.run, io::artifacts_dir());
    if (path.empty()) {
      std::fprintf(stderr, "WARNING: failed to write manifest for %s\n",
                   name.c_str());
    } else {
      std::printf("(manifest written to %s)\n", path.c_str());
    }
  }
  if (!setup.trace_path.empty()) {
    if (obs::write_chrome_trace(setup.trace_path)) {
      std::printf("(chrome trace written to %s — load in ui.perfetto.dev)\n",
                  setup.trace_path.c_str());
    } else {
      std::fprintf(stderr, "WARNING: failed to write trace to %s\n",
                   setup.trace_path.c_str());
    }
  }
}

// For google-benchmark binaries: leaves google-benchmark's own arguments
// (`--benchmark_*` and its log verbosity `--v=`) in argv for
// benchmark::Initialize and parses everything else exactly as the study
// benches do (parse_obs_flags, then check_unused), so an unknown or
// malformed flag is a usage error naming it. Pair with finish_run() after
// benchmark::RunSpecifiedBenchmarks().
inline BenchSetup strip_obs_flags(int& argc, char** argv) {
  std::vector<const char*> ours = {argv[0]};
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0 ||
        std::strncmp(argv[i], "--v=", 4) == 0) {
      argv[kept++] = argv[i];
    } else {
      ours.push_back(argv[i]);
    }
  }
  argc = kept;
  util::CliFlags flags(static_cast<int>(ours.size()), ours.data());
  BenchSetup setup = parse_obs_flags(flags);
  flags.check_unused();
  return setup;
}

// Study config for a specific network within a multi-network bench loop:
// re-resolves the per-network default epoch budget unless --epochs was
// given explicitly.
inline core::StudyConfig for_network(const BenchSetup& setup,
                                     const std::string& net) {
  core::StudyConfig cfg = setup.study;
  cfg.network = net;
  if (!setup.epochs_explicit) {
    const bool cifar = net.rfind("cifarnet", 0) == 0;
    cfg.baseline_epochs =
        setup.paper_scale ? (cifar ? 30 : 20) : (cifar ? 16 : 6);
  }
  return cfg;
}

// Write a result table both to stdout and to artifacts/<name>.csv.
inline void emit_table(const util::Table& table, const std::string& name,
                       const std::string& caption) {
  std::printf("\n%s\n%s", caption.c_str(), table.to_string().c_str());
  const std::string path = io::artifacts_dir() + "/" + name + ".csv";
  table.write_csv(path);
  std::printf("(series written to %s)\n", path.c_str());
}

// The `main` of every bench and example: runs `body` and turns an escaping
// exception into an exit code instead of std::terminate. A usage error
// (std::invalid_argument — an unknown flag, a malformed value) prints
// `error: <message>` and exits 2; any other std::exception exits 1.
inline int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Print a qualitative shape-check line: the reproduction target is trend
// agreement with the paper, not absolute numbers.
inline void shape_check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "SHAPE-OK" : "SHAPE-DIFF", claim.c_str());
}

}  // namespace con::bench
