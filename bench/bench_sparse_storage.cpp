// Deployment-substrate bench: sparse storage and kernels across the pruning
// sweep — the EIE/SCNN motivation from the paper's introduction, measured.
//
// For each density: the model's shipped size under dense, CSR and EIE-style
// (4-bit relative index) encodings, the CSR kernel's correctness gap, and
// the dense-vs-sparse matmul wall time on the biggest layer.
//
//   bench_sparse_storage [--network lenet5-small]
#include <cstdio>

#include "bench_common.h"
#include "compress/pruner.h"
#include "sparse/sparse_model.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "util/logging.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags);
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  const std::string& net = setup.study.network;
  std::printf("== Sparse storage & kernels across pruning densities (%s) ==\n",
              net.c_str());

  util::Table t({"density", "dense_KiB", "csr_KiB", "eie4_KiB",
                 "csr_ratio", "eie_ratio", "kernel_err", "sparse_speedup"});
  double prev_eie = 0.0;
  bool monotone = true;
  for (double d : {1.0, 0.5, 0.2, 0.1, 0.05}) {
    nn::Sequential pruned = study.baseline().clone();
    compress::DnsPruner pruner(pruned,
                               compress::DnsConfig{.target_density = d});
    sparse::SparseModelSnapshot snap = sparse::snapshot_model(pruned);
    sparse::ModelFootprint fp = sparse::model_footprint(snap,
                                                        /*weight_bits=*/4);
    const float err = sparse::max_kernel_divergence(snap);

    // Time dense vs CSR matmul on the largest snapshotted matrix.
    std::size_t big = 0;
    for (std::size_t i = 1; i < snap.entries.size(); ++i) {
      if (snap.entries[i].matrix.rows * snap.entries[i].matrix.cols >
          snap.entries[big].matrix.rows * snap.entries[big].matrix.cols) {
        big = i;
      }
    }
    const sparse::CsrMatrix& m = snap.entries[big].matrix;
    tensor::Tensor dense = sparse::csr_to_dense(m);
    util::Rng rng(1);
    tensor::Tensor b({m.cols, 32});
    tensor::fill_normal(b, rng, 0.0f, 1.0f);
    const int reps = 20;
    util::Timer timer;
    for (int r = 0; r < reps; ++r) tensor::matmul(dense, b);
    const double dense_t = timer.seconds();
    timer.reset();
    for (int r = 0; r < reps; ++r) sparse::csr_matmul(m, b);
    const double sparse_t = timer.seconds();

    if (prev_eie != 0.0 && fp.eie_bytes > static_cast<std::size_t>(prev_eie)) {
      monotone = false;
    }
    prev_eie = static_cast<double>(fp.eie_bytes);
    t.add_row({util::format_double(d, 2),
               util::format_double(fp.dense_bytes / 1024.0, 1),
               util::format_double(fp.csr_bytes / 1024.0, 1),
               util::format_double(fp.eie_bytes / 1024.0, 1),
               util::format_double(fp.csr_compression_ratio(), 2),
               util::format_double(fp.eie_compression_ratio(), 2),
               util::format_double(err, 6),
               util::format_double(dense_t / std::max(1e-12, sparse_t), 2)});
  }
  bench::emit_table(t, "sparse_storage_" + net,
                    "-- shipped-model footprint and kernel behaviour");
  bench::shape_check(monotone, "EIE footprint shrinks monotonically with "
                               "density");
  std::printf(
      "note: the dense matmul also skips zeros (pruned-weight fast path), "
      "so\nthe sparse speedup understates a dense-blind baseline.\n");
  bench::finish_run(setup, "bench_sparse_storage");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
