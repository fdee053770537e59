// Deployment report: the full deep-compression shipping pipeline for one
// model, with the memory and robustness numbers a vendor would review
// before shipping an edge product.
//
// Pipeline: train -> prune (DNS) -> cluster weights (shared values) ->
// encode (CSR + relative indices + Huffman) -> verify integer execution,
// then ask the paper's question of the artifact that would actually ship:
// how transferable are attacks against it?
//
//   ./deployment_report [--network lenet5-small] [--density 0.3]
//                       [--codebook-bits 5]
#include <cstdio>
#include <map>

#include "attacks/attack.h"
#include "compress/clustering.h"
#include "compress/finetune.h"
#include "core/study.h"
#include "core/transfer.h"
#include "nn/trainer.h"
#include "sparse/huffman.h"
#include "sparse/sparse_model.h"
#include "bench_common.h"
#include "util/cli.h"
#include "util/threadpool.h"
#include "util/table.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup obs_run = bench::parse_obs_flags(flags);
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(flags.get_int("threads", 0)));
  core::StudyConfig cfg;
  cfg.network = flags.get_string("network", "lenet5-small");
  cfg.train_size = flags.get_int("train-size", 1500);
  cfg.test_size = flags.get_int("test-size", 300);
  cfg.attack_size = flags.get_int("attack-size", 80);
  cfg.baseline_epochs = static_cast<int>(flags.get_int("epochs", 6));
  const double density = flags.get_double("density", 0.3);
  const int codebook_bits =
      static_cast<int>(flags.get_int("codebook-bits", 5));
  cfg.store_dir = flags.get_string("store", "");
  flags.check_unused();

  core::Study study(cfg);
  bench::record_study_config(obs_run, cfg);
  bench::record_study(obs_run, study);
  std::printf("== deployment report: %s ==\n", cfg.network.c_str());
  std::printf("baseline: %lld parameters, accuracy %.3f\n",
              static_cast<long long>(study.baseline().num_parameters()),
              study.baseline_accuracy());

  // Stage 1+2: prune (through the store) and cluster the pruned weights.
  nn::Sequential pruned = study.pruned_variant(density).model;
  nn::Sequential shipped = compress::cluster_model(pruned, codebook_bits);
  const double shipped_acc = nn::evaluate_accuracy(
      shipped, study.test_set().images, study.test_set().labels);
  std::printf("after prune(d=%.2f) + cluster(%d-bit codebook): accuracy "
              "%.3f\n\n",
              density, codebook_bits, shipped_acc);

  // Stage 3: encode and account.
  sparse::SparseModelSnapshot snap = sparse::snapshot_model(shipped);
  util::Table t({"parameter", "shape", "nnz", "dense_KiB", "huffman_KiB",
                 "ratio"});
  std::size_t total_dense = 0, total_huff = 0;
  for (const auto& entry : snap.entries) {
    // Huffman over codebook indices (the deep-compression payload).
    std::map<float, std::int32_t> codebook;
    std::vector<std::int32_t> codes;
    codes.reserve(entry.matrix.values.size());
    for (float v : entry.matrix.values) {
      auto [it, ins] =
          codebook.emplace(v, static_cast<std::int32_t>(codebook.size()));
      codes.push_back(it->second);
    }
    const sparse::RelativeIndexEncoding idx =
        sparse::encode_relative_indices(entry.matrix, 4);
    std::size_t payload_bits = 0;
    if (!codes.empty()) {
      sparse::HuffmanCode code = sparse::build_huffman(codes);
      payload_bits = sparse::encoded_bits(code, codes);
    }
    // payload + 4-bit relative indices (incl. padding) + codebook floats
    const std::size_t huff_bytes =
        (payload_bits + static_cast<std::size_t>(idx.stored_entries) * 4 + 7) /
            8 +
        codebook.size() * sizeof(float);
    const std::size_t dense_bytes =
        static_cast<std::size_t>(entry.matrix.rows * entry.matrix.cols) *
        sizeof(float);
    total_dense += dense_bytes;
    total_huff += huff_bytes;
    t.add_row({entry.name,
               std::to_string(entry.matrix.rows) + "x" +
                   std::to_string(entry.matrix.cols),
               std::to_string(entry.matrix.nnz()),
               util::format_double(dense_bytes / 1024.0, 1),
               util::format_double(huff_bytes / 1024.0, 1),
               util::format_double(static_cast<double>(dense_bytes) /
                                       std::max<std::size_t>(1, huff_bytes),
                                   1)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("total: %.1f KiB dense -> %.1f KiB shipped (%.1fx "
              "compression)\n\n",
              total_dense / 1024.0, total_huff / 1024.0,
              static_cast<double>(total_dense) /
                  std::max<std::size_t>(1, total_huff));

  // Stage 4: the paper's security question against the shipped artifact.
  const attacks::AttackKind attack = attacks::AttackKind::kIfgsm;
  const attacks::AttackParams params =
      attacks::paper_params(attack, cfg.network);
  core::ScenarioPoint p = core::evaluate_scenarios(
      study.baseline(), shipped, attack, params, study.attack_set());
  std::printf("IFGSM scenarios against the shipped model:\n");
  std::printf("  clean accuracy       %.3f\n", p.base_accuracy);
  std::printf("  COMP->COMP (self)    %.3f\n", p.comp_to_comp);
  std::printf("  FULL->COMP           %.3f\n", p.full_to_comp);
  std::printf("  COMP->FULL (leak!)   %.3f\n", p.comp_to_full);
  std::printf(
      "\nThe last line is the paper's warning: a low COMP->FULL accuracy\n"
      "means samples crafted on this shipped model break the hidden cloud\n"
      "model too — compression saved %.1fx memory but bought no isolation.\n",
      static_cast<double>(total_dense) / std::max<std::size_t>(1, total_huff));
  bench::finish_run(obs_run, "deployment_report");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
