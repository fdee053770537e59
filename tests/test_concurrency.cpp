// Concurrency contract tests.
//
// The refactor moved all per-call forward/backward state into caller-owned
// ForwardTapes, which is what lets many threads share one model. These
// tests pin the three guarantees the parallel harness depends on:
//   1. eval-mode gradient computation on a shared model is bit-identical
//      under concurrency (no hidden mutable state left in the layers),
//   2. the chunked/parallel entry points (run_attack_batched, the
//      store-backed sweep_scenarios) produce exactly the serial result, and
//   3. util::parallel_for covers its range exactly once, rethrows a
//      worker exception on the caller, and leaves the pool usable.
// Run them under CON_SANITIZE=thread to prove the data-race side of the
// contract, not just value equality.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attack.h"
#include "attacks/gradient.h"
#include "compress/fixed_point.h"
#include "core/transfer.h"
#include "core/sweeps.h"
#include "data/synth_digits.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "tensor/gemm.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/threadpool.h"

namespace con {
namespace {

using tensor::Index;
using tensor::Tensor;

// Force a multi-thread pool before anything touches ThreadPool::global():
// on a single-core host the pool would otherwise have one thread and
// parallel_for would run inline, leaving the threaded code paths untested.
// Every result in the suite is thread-count invariant, so oversubscription
// is harmless.
const bool kForcePool = [] {
  util::ThreadPool::set_global_threads(4);
  return true;
}();

// One small trained model + dataset shared by every test in the suite
// (training dominates the suite's runtime; do it once).
class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SynthDigitsConfig dc;
    dc.train_size = 800;
    dc.test_size = 96;
    split_ = new data::TrainTestSplit(data::make_synth_digits(dc));
    model_ = new nn::Sequential(models::make_lenet5_small(177));
    nn::TrainConfig tc;
    tc.epochs = 2;
    nn::train_classifier(*model_, split_->train.images, split_->train.labels,
                         tc);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete split_;
    model_ = nullptr;
    split_ = nullptr;
  }

  static nn::Sequential* model_;
  static data::TrainTestSplit* split_;
};

nn::Sequential* ConcurrencyTest::model_ = nullptr;
data::TrainTestSplit* ConcurrencyTest::split_ = nullptr;

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (Index i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
}

TEST_F(ConcurrencyTest, SharedModelGradientsAreBitIdenticalAcrossThreads) {
  // Many threads differentiate ONE model object concurrently; every thread
  // must reproduce the serial gradient bit for bit. Before the tape
  // refactor this raced on the layers' cached activations.
  const data::Dataset probe = split_->test.take(8);
  const Tensor reference =
      attacks::loss_input_gradient(*model_, probe.images, probe.labels);

  constexpr int kThreads = 8;   // ≥ 4 per the execution contract
  constexpr int kRepeats = 5;
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        results[t] =
            attacks::loss_input_gradient(*model_, probe.images, probe.labels);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_bit_identical(results[t], reference);
  }
}

TEST_F(ConcurrencyTest, ConcurrentAttacksMatchSerialAttack) {
  // Whole attacks (iterated forward/backward) from concurrent threads on
  // the shared model, against the serial result.
  const data::Dataset probe = split_->test.take(6);
  const attacks::AttackParams params{.epsilon = 0.03f, .iterations = 3};
  const Tensor reference =
      attacks::run_attack(attacks::AttackKind::kIfgsm, *model_, probe.images,
                          probe.labels, params);

  constexpr int kThreads = 4;
  std::vector<Tensor> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] =
          attacks::run_attack(attacks::AttackKind::kIfgsm, *model_,
                              probe.images, probe.labels, params);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    expect_bit_identical(results[t], reference);
  }
}

TEST_F(ConcurrencyTest, BatchedAttackMatchesSerialChunksExactly) {
  // run_attack_batched splits into fixed kAttackChunk-sample chunks and
  // generates them over the pool. The result must equal a serial loop over
  // the same chunks — chunk boundaries depend on the batch size only, so
  // this also proves thread-count invariance.
  const data::Dataset probe = split_->test.take(80);  // 32 + 32 + 16
  const attacks::AttackParams params{.epsilon = 0.02f, .iterations = 2};

  const Tensor parallel = attacks::run_attack_batched(
      attacks::AttackKind::kFgsm, *model_, probe.images, probe.labels, params);

  Tensor serial(probe.images.shape());
  const Index n = probe.images.dim(0);
  for (Index lo = 0; lo < n; lo += attacks::kAttackChunk) {
    const Index hi = std::min(n, lo + attacks::kAttackChunk);
    std::vector<Index> dims = probe.images.shape().dims();
    dims[0] = hi - lo;
    Tensor chunk{tensor::Shape{dims}};
    for (Index i = lo; i < hi; ++i) {
      tensor::set_batch(chunk, i - lo, tensor::slice_batch(probe.images, i));
    }
    std::vector<int> chunk_labels(probe.labels.begin() + lo,
                                  probe.labels.begin() + hi);
    Tensor adv = attacks::run_attack(attacks::AttackKind::kFgsm, *model_,
                                     chunk, chunk_labels, params);
    for (Index i = lo; i < hi; ++i) {
      tensor::set_batch(serial, i, tensor::slice_batch(adv, i - lo));
    }
  }
  expect_bit_identical(parallel, serial);

  // And the parallel path is deterministic run-to-run despite pool
  // scheduling variance.
  const Tensor again = attacks::run_attack_batched(
      attacks::AttackKind::kFgsm, *model_, probe.images, probe.labels, params);
  expect_bit_identical(again, parallel);
}

TEST(ConcurrencyStoreTest, StoredSweepMatchesSerialEvaluationCellForCell) {
  // The parallel store-backed sweep must reproduce the serial loop exactly
  // — same cells, same order, same doubles. Thread-count invariance of the
  // stored objects themselves is the ConcurrencyStoreThreadInvariance
  // ctest (bench/thread_invariance.cmake).
  core::StudyConfig cfg;
  cfg.network = "lenet5-small";
  cfg.train_size = 96;
  cfg.test_size = 48;
  cfg.attack_size = 24;
  cfg.baseline_epochs = 1;
  cfg.batch_size = 16;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 16;
  cfg.store_dir = ::testing::TempDir() + "/con_concurrency_store_" +
                  std::to_string(::getpid());
  std::filesystem::remove_all(cfg.store_dir);
  core::Study study(cfg);
  std::vector<core::ModelArtifact> family =
      core::build_pruned_family(study, {1.0, 0.5});
  const attacks::AttackParams params{.epsilon = 0.02f, .iterations = 2};

  const std::vector<core::ScenarioPoint> parallel = core::sweep_scenarios(
      study, family, attacks::AttackKind::kIfgsm, params);

  const Tensor baseline_adv =
      study.baseline_adversarial(attacks::AttackKind::kIfgsm, params);
  ASSERT_EQ(parallel.size(), family.size());
  for (std::size_t i = 0; i < family.size(); ++i) {
    const core::ScenarioPoint serial = core::evaluate_scenarios(
        study.baseline(), family[i].model, attacks::AttackKind::kIfgsm,
        params, study.attack_set(), baseline_adv);
    EXPECT_DOUBLE_EQ(parallel[i].base_accuracy, serial.base_accuracy);
    EXPECT_DOUBLE_EQ(parallel[i].comp_to_comp, serial.comp_to_comp);
    EXPECT_DOUBLE_EQ(parallel[i].full_to_comp, serial.full_to_comp);
    EXPECT_DOUBLE_EQ(parallel[i].comp_to_full, serial.comp_to_full);
  }
  std::filesystem::remove_all(cfg.store_dir);
}

// Bit-for-bit comparison: NaN payloads and signed zeros count, which
// float == would blur.
void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (Index i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Values in [-1, 1), deterministic per seed.
Tensor signed_batch(const tensor::Shape& shape, std::uint64_t seed) {
  Tensor t = testing::random_batch(shape, seed);
  for (float& v : t.flat()) v = 2.0f * v - 1.0f;
  return t;
}

// Columns [i*plane, (i+1)*plane) of a [rows, n*plane] matrix.
Tensor column_block(const Tensor& m, Index i, Index plane) {
  const Index rows = m.dim(0), ld = m.dim(1);
  Tensor out({rows, plane});
  for (Index r = 0; r < rows; ++r) {
    for (Index p = 0; p < plane; ++p) {
      out.at({r, p}) = m[r * ld + i * plane + p];
    }
  }
  return out;
}

TEST(Concurrency, ConvPoolStepBitwiseEqualsSerialReference) {
  // One training step's conv/pool stack on the 4-thread pool against a
  // serial reference built here, image by image, from im2col/col2im and
  // the scalar GEMM oracles; the weight and bias gradients reduce over the
  // whole batch in one chain, as the layer's one NT product does. Sizes
  // cover a plane that is not a multiple of the 8-column strip (14x14),
  // more than one 16 Ki elementwise chunk (32x32 at batch 32), padding and
  // stride, and a pool window that holds only -inf and NaN.
  const float ninf = -std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  for (Index n : {Index{1}, Index{3}, Index{32}}) {
    for (Index hw : {Index{14}, Index{32}}) {
      for (Index padding : {Index{0}, Index{1}}) {
        for (Index stride : {Index{1}, Index{2}}) {
          const std::string what =
              "n=" + std::to_string(n) + " hw=" + std::to_string(hw) +
              " pad=" + std::to_string(padding) +
              " stride=" + std::to_string(stride);
          util::Rng rng(static_cast<std::uint64_t>(n * 100 + hw));
          const nn::Conv2dSpec spec{.in_channels = 3, .out_channels = 5,
                                    .kernel = 3, .stride = stride,
                                    .padding = padding};
          nn::Conv2d conv(spec, rng);
          conv.bias().value = signed_batch(tensor::Shape{5}, 11);
          const Tensor w = conv.weight().value;
          const Tensor& b = conv.bias().value;
          const Tensor x = signed_batch(tensor::Shape{n, 3, hw, hw}, 12);

          // Conv2d forward.
          nn::TapeSlot cslot;
          const Tensor y = conv.forward(x, /*train=*/true, cslot);
          const tensor::Conv2dGeometry g = cslot.geom;
          const Index oh = g.out_h(), ow = g.out_w(), plane = oh * ow;
          const Index ckk = 3 * 3 * 3;
          Tensor cols_all({ckk, n * plane});
          Tensor want_y({n, 5, oh, ow});
          for (Index i = 0; i < n; ++i) {
            const Tensor cols = tensor::im2col(tensor::slice_batch(x, i), g);
            for (Index r = 0; r < ckk; ++r) {
              for (Index p = 0; p < plane; ++p) {
                cols_all[r * n * plane + i * plane + p] = cols[r * plane + p];
              }
            }
            const Tensor out = tensor::gemm::reference_nn(w, cols);
            for (Index c = 0; c < 5; ++c) {
              for (Index p = 0; p < plane; ++p) {
                want_y[(i * 5 + c) * plane + p] = out[c * plane + p] + b[c];
              }
            }
          }
          expect_same_bits(y, want_y, "conv forward " + what);

          // ReLU forward, against one whole-buffer kernel call.
          const nn::ReLU relu;
          nn::TapeSlot rslot;
          Tensor r = relu.forward(y, true, rslot);
          Tensor want_r(y.shape());
          kt.relu(want_r.data(), y.data(), y.numel());
          expect_same_bits(r, want_r, "relu forward " + what);

          // MaxPool2d forward, with the last image's first window poisoned.
          const Index last = (n - 1) * 5 * plane;
          r[last] = ninf;
          r[last + 1] = nan;
          r[last + ow] = nan;
          r[last + ow + 1] = ninf;
          const nn::MaxPool2d pool(2, 2);
          nn::TapeSlot pslot;
          const Tensor py = pool.forward(r, true, pslot);
          const Index ph = (oh - 2) / 2 + 1, pw = (ow - 2) / 2 + 1;
          Tensor want_py({n, 5, ph, pw});
          std::vector<Index> argmax;
          for (Index pl = 0; pl < n * 5; ++pl) {
            for (Index u = 0; u < ph; ++u) {
              for (Index v = 0; v < pw; ++v) {
                float best = ninf;
                Index at = pl * plane + 2 * u * ow + 2 * v;
                for (Index dy = 0; dy < 2; ++dy) {
                  for (Index dx = 0; dx < 2; ++dx) {
                    const Index k =
                        pl * plane + (2 * u + dy) * ow + 2 * v + dx;
                    if (r[k] > best) {
                      best = r[k];
                      at = k;
                    }
                  }
                }
                want_py[(pl * ph + u) * pw + v] = best;
                argmax.push_back(at);
              }
            }
          }
          expect_same_bits(py, want_py, "pool forward " + what);

          // MaxPool2d backward.
          const Tensor gpy = signed_batch(py.shape(), 13);
          const Tensor gr = pool.backward(gpy, pslot);
          Tensor want_gr(r.shape());
          for (std::size_t o = 0; o < argmax.size(); ++o) {
            want_gr[argmax[o]] += gpy[static_cast<Index>(o)];
          }
          expect_same_bits(gr, want_gr, "pool backward " + what);

          // ReLU backward.
          const Tensor gy = relu.backward(gr, rslot);
          Tensor want_gy = gr;
          kt.relu_bwd(want_gy.data(), y.data(), y.numel());
          expect_same_bits(gy, want_gy, "relu backward " + what);

          // Conv2d backward: ∇x image by image, ∇W and ∇b over the batch.
          Tensor go_all({5, n * plane});
          for (Index i = 0; i < n; ++i) {
            for (Index c = 0; c < 5; ++c) {
              for (Index p = 0; p < plane; ++p) {
                go_all[c * n * plane + i * plane + p] =
                    gy[(i * 5 + c) * plane + p];
              }
            }
          }
          Tensor want_dx(x.shape());
          for (Index i = 0; i < n; ++i) {
            const Tensor dcols = tensor::gemm::reference_tn(
                w, column_block(go_all, i, plane));
            tensor::set_batch(want_dx, i, tensor::col2im(dcols, g));
          }
          Tensor want_dw(w.shape());
          tensor::add_inplace(want_dw,
                              tensor::gemm::reference_nt(go_all, cols_all));
          Tensor want_db(b.shape());
          for (Index c = 0; c < 5; ++c) {
            double acc = 0.0;
            for (Index p = 0; p < n * plane; ++p) {
              acc += go_all[c * n * plane + p];
            }
            want_db[c] += static_cast<float>(acc);
          }
          conv.weight().grad.zero();
          conv.bias().grad.zero();
          const Tensor dx = conv.backward(gy, cslot);
          expect_same_bits(dx, want_dx, "conv backward dx " + what);
          expect_same_bits(conv.weight().grad, want_dw, "conv dW " + what);
          expect_same_bits(conv.bias().grad, want_db, "conv db " + what);
          conv.weight().grad.zero();
          conv.bias().grad.zero();
          conv.backward_params(gy, cslot);
          expect_same_bits(conv.weight().grad, want_dw,
                           "conv backward_params dW " + what);
          expect_same_bits(conv.bias().grad, want_db,
                           "conv backward_params db " + what);

          // Fake-quantisation over the conv output, with non-finite
          // values, against one whole-buffer kernel call.
          Tensor q_in = y;
          q_in[0] = nan;
          q_in[q_in.numel() - 1] = ninf;
          const compress::FixedPointFormat fmt =
              compress::FixedPointFormat::paper_format(8);
          Tensor q(q_in.shape()), gate(q_in.shape());
          compress::fake_quantize(fmt, q_in.data(), q.data(), gate.data(),
                                  q_in.numel());
          Tensor want_q(q_in.shape()), want_gate(q_in.shape());
          kt.fake_quant(want_q.data(), want_gate.data(), q_in.data(),
                        fmt.inv_step(), fmt.step(), fmt.lo(), fmt.hi(),
                        q_in.numel());
          expect_same_bits(q, want_q, "fake_quantize " + what);
          expect_same_bits(gate, want_gate, "fake_quantize gate " + what);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// conlint:lockfree(per-index atomic slots; the parallel_for join orders every bump before the assertions)
TEST(ParallelForTest, CoversRangeExactlyOnce) {
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  util::parallel_for(0, kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i].load(), 1);

  // Empty and single-element ranges are fine too.
  std::atomic<int> hits{0};
  util::parallel_for(5, 5, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);
  util::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ParallelForTest, RethrowsWorkerExceptionAndPoolSurvives) {
  EXPECT_THROW(
      util::parallel_for(0, 5'000,
                         [&](std::size_t i) {
                           if (i == 1234) throw std::runtime_error("boom");
                         }),
      std::runtime_error);

  // The pool must be fully usable afterwards: every in-flight task drained,
  // in_flight_ balanced, no wedged workers.
  std::vector<int> out(2'000, 0);
  util::parallel_for(0, out.size(),
                     [&](std::size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) * 2);
  }
}

// conlint:lockfree(independent tally bumped by workers; the nested parallel_for joins order every bump before the read)
TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // parallel_for inside a pool task must make progress even when every pool
  // thread is occupied by the outer loop (the caller drains its own work).
  std::atomic<int> total{0};
  util::parallel_for(0, 16, [&](std::size_t) {
    util::parallel_for(0, 64,
                       [&](std::size_t) {
                         total.fetch_add(1, std::memory_order_relaxed);
                       });
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(ThreadPoolTest, SetGlobalThreadsAfterCreationIsStrict) {
  util::ThreadPool& pool = util::ThreadPool::global();
  // Matching (or hardware-default) size is accepted; a mismatch throws
  // rather than silently running with the wrong parallelism.
  EXPECT_NO_THROW(util::ThreadPool::set_global_threads(pool.size()));
  EXPECT_THROW(util::ThreadPool::set_global_threads(pool.size() + 1),
               std::logic_error);
}

}  // namespace
}  // namespace con
