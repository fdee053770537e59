// Attack-loop benchmarks: IFGSM/IFGM iterations and DeepFool at the
// paper's LeNet5 (28×28×1) and CifarNet (32×32×3) shapes.
//
// The headline comparison is DeepFool/<net>/reference (the per-sample
// loop: batch-of-1 forward plus num_classes backwards per sample per
// iteration) against DeepFool/<net>/batched (the active-set attack: one
// forward over the live set, then num_classes batched backwards). Both
// produce byte-identical outputs — see test_attacks_batched.cpp — so the
// throughput ratio is pure execution-model win. The bench-smoke target
// captures the numbers into BENCH_attacks.json.
//
// Two label regimes bracket the workloads the transfer sweep actually
// runs. "healthy": labels are the model's own predictions, so no sample
// starts fooled — the batched win is limited to skipping the discovery
// round of class backwards. "degraded": only one row in eight keeps its
// predicted label, mimicking the sparse/coarse end of the compression
// sweep where model accuracy collapses toward chance and most rows are
// already misclassified — the per-sample path still pays a full
// linearisation (one forward + num_classes backwards) per such row before
// noticing, while the active set drops them after a single forward.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <vector>

#include "attacks/attack.h"
#include "models/model_zoo.h"
#include "nn/trainer.h"
#include "tensor/random.h"
#include "util/rng.h"

using namespace con;
using tensor::Shape;
using tensor::Tensor;

namespace {

constexpr int kDeepFoolIters = 6;
constexpr int kFastGradientIters = 5;

// Fraction of rows whose label matches the model prediction: every row in
// the healthy regime, one in eight (roughly the paper's near-chance
// accuracy at extreme compression) in the degraded regime.
enum class Labels { kHealthy, kDegraded };

struct AttackBench {
  nn::Sequential model;
  Tensor images;
  std::vector<int> labels;
};

// Untrained model + uniform pixel batch; labels from model predictions.
AttackBench make_bench(const std::string& net, tensor::Index batch,
                       Labels regime = Labels::kHealthy) {
  AttackBench b{models::make_model(net, /*seed=*/7), Tensor(), {}};
  const models::InputSpec spec = models::input_spec(net);
  util::Rng rng(11);
  b.images = Tensor({batch, spec.channels, spec.height, spec.width});
  tensor::fill_uniform(b.images, rng, 0.0f, 1.0f);
  b.labels = nn::predict(b.model, b.images);
  if (regime == Labels::kDegraded) {
    for (std::size_t i = 0; i < b.labels.size(); ++i) {
      if (i % 8 != 0) {
        b.labels[i] = (b.labels[i] + 1 + static_cast<int>(i % 9)) % 10;
      }
    }
  }
  return b;
}

void BM_DeepFoolReference(benchmark::State& state, const std::string& net,
                          Labels regime) {
  AttackBench b = make_bench(net, state.range(0), regime);
  attacks::AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = kDeepFoolIters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::deepfool_reference(b.model, b.images, b.labels, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DeepFoolBatched(benchmark::State& state, const std::string& net,
                        Labels regime) {
  AttackBench b = make_bench(net, state.range(0), regime);
  attacks::AttackParams params;
  params.epsilon = 0.02f;
  params.iterations = kDeepFoolIters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::deepfool(b.model, b.images, b.labels, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Ifgsm(benchmark::State& state, const std::string& net) {
  AttackBench b = make_bench(net, state.range(0));
  attacks::AttackParams params;
  params.epsilon = 0.01f;
  params.iterations = kFastGradientIters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::ifgsm(b.model, b.images, b.labels, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Ifgm(benchmark::State& state, const std::string& net) {
  AttackBench b = make_bench(net, state.range(0));
  attacks::AttackParams params;
  params.epsilon = 0.01f;
  params.iterations = kFastGradientIters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attacks::ifgm(b.model, b.images, b.labels, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK_CAPTURE(BM_DeepFoolReference, lenet5, std::string("lenet5"),
                  Labels::kHealthy)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeepFoolBatched, lenet5, std::string("lenet5"),
                  Labels::kHealthy)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeepFoolReference, cifarnet, std::string("cifarnet"),
                  Labels::kHealthy)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeepFoolBatched, cifarnet, std::string("cifarnet"),
                  Labels::kHealthy)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeepFoolReference, cifarnet_degraded,
                  std::string("cifarnet"), Labels::kDegraded)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeepFoolBatched, cifarnet_degraded,
                  std::string("cifarnet"), Labels::kDegraded)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_Ifgsm, lenet5, std::string("lenet5"))
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ifgsm, cifarnet, std::string("cifarnet"))
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ifgm, lenet5, std::string("lenet5"))
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Ifgm, cifarnet, std::string("cifarnet"))
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Custom main instead of BENCHMARK_MAIN(): the obs flags (--trace,
// --manifest) must be stripped from argv before benchmark::Initialize
// rejects them as unknown.
int run(int argc, char** argv) {
  con::bench::BenchSetup setup = con::bench::strip_obs_flags(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  con::bench::finish_run(setup, "bench_attacks");
  return 0;
}

int main(int argc, char** argv) {
  return con::bench::run_main(argc, argv, run);
}
