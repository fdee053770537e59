#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "compress/fixed_point.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "test_helpers.h"

namespace con::compress {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;

TEST(FixedPointFormat, StepAndBounds) {
  FixedPointFormat q{.total_bits = 4, .integer_bits = 1};
  EXPECT_EQ(q.fraction_bits(), 3);
  EXPECT_FLOAT_EQ(q.step(), 0.125f);
  EXPECT_FLOAT_EQ(q.lo(), -1.0f);
  EXPECT_FLOAT_EQ(q.hi(), 0.875f);
}

TEST(FixedPointFormat, PaperAllocation) {
  // "1-bit integer when bitwidth is 4, 2-bit integer when bitwidth is 8,
  // 4-bit integers for the rest"
  EXPECT_EQ(FixedPointFormat::paper_format(4).integer_bits, 1);
  EXPECT_EQ(FixedPointFormat::paper_format(8).integer_bits, 2);
  EXPECT_EQ(FixedPointFormat::paper_format(16).integer_bits, 4);
  EXPECT_EQ(FixedPointFormat::paper_format(32).integer_bits, 4);
  EXPECT_THROW(FixedPointFormat::paper_format(1), std::invalid_argument);
}

TEST(FixedPointQuantize, RoundsToGrid) {
  FixedPointFormat q{.total_bits = 8, .integer_bits = 2};
  // step = 2^-6 = 0.015625
  EXPECT_FLOAT_EQ(fixed_point_quantize(0.02f, q), 0.015625f);
  EXPECT_FLOAT_EQ(fixed_point_quantize(0.0f, q), 0.0f);
  // -0.008 / step = -0.512 -> nearest grid point is -1 step
  EXPECT_FLOAT_EQ(fixed_point_quantize(-0.008f, q), -0.015625f);
  // -0.007 / step = -0.448 -> rounds to zero
  EXPECT_FLOAT_EQ(fixed_point_quantize(-0.007f, q), 0.0f);
}

TEST(FixedPointQuantize, SaturatesAtBounds) {
  FixedPointFormat q{.total_bits = 4, .integer_bits = 1};
  EXPECT_FLOAT_EQ(fixed_point_quantize(5.0f, q), 0.875f);
  EXPECT_FLOAT_EQ(fixed_point_quantize(-5.0f, q), -1.0f);
}

TEST(FixedPointQuantize, IdempotentOnGrid) {
  FixedPointFormat q{.total_bits = 8, .integer_bits = 2};
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const float v = rng.uniform_f(-3.0f, 3.0f);
    const float once = fixed_point_quantize(v, q);
    EXPECT_FLOAT_EQ(fixed_point_quantize(once, q), once);
  }
}

// Property sweep: quantisation error is bounded by step/2 inside the
// representable range, for every paper bitwidth.
class QuantErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantErrorBound, ErrorWithinHalfStep) {
  const FixedPointFormat q = FixedPointFormat::paper_format(GetParam());
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const float v = rng.uniform_f(q.lo(), q.hi());
    const float e = std::fabs(fixed_point_quantize(v, q) - v);
    EXPECT_LE(e, q.step() * 0.5f + 1e-7f);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperBitwidths, QuantErrorBound,
                         ::testing::Values(4, 8, 12, 16, 24, 32));

// The fake-quant loop as QuantActivation and FixedPointWeightTransform
// wrote it before the kernel table had a fake_quant entry: division by the
// step, libm nearbyint, then the saturating `if` chain.
void division_fake_quant(const FixedPointFormat& fmt, const float* in,
                         float* out, float* gate, Index n) {
  const float lo = fmt.lo();
  const float hi = fmt.hi();
  const float s = fmt.step();
  for (Index i = 0; i < n; ++i) {
    float q = std::nearbyint(in[i] / s) * s;
    const bool saturated = q < lo || q > hi;
    if (q < lo) q = lo;
    if (q > hi) q = hi;
    out[i] = q;
    gate[i] = saturated ? 0.0f : 1.0f;
  }
}

TEST(FixedPoint, FakeQuantMatchesDivisionDefinition) {
  // A strided sweep over all 2³² float bit patterns (every exponent, both
  // signs, NaN payloads, subnormals) through every table this host runs.
  constexpr std::uint64_t kStride = 1021;
  constexpr Index kChunk = 4096;
  std::vector<tensor::kernels::Isa> isas = {tensor::kernels::Isa::kScalar};
  if (tensor::kernels::isa_supported(tensor::kernels::Isa::kAvx2)) {
    isas.push_back(tensor::kernels::Isa::kAvx2);
  }
  std::vector<float> in(kChunk), want_out(kChunk), want_gate(kChunk);
  std::vector<float> got_out(kChunk), got_gate(kChunk);
  for (int bits : {4, 8, 16, 32}) {
    const FixedPointFormat fmt = FixedPointFormat::paper_format(bits);
    std::uint64_t pattern = 0;
    while (pattern < (std::uint64_t{1} << 32)) {
      Index n = 0;
      for (; n < kChunk && pattern < (std::uint64_t{1} << 32);
           ++n, pattern += kStride) {
        const auto b = static_cast<std::uint32_t>(pattern);
        std::memcpy(&in[static_cast<std::size_t>(n)], &b, 4);
      }
      division_fake_quant(fmt, in.data(), want_out.data(), want_gate.data(),
                          n);
      for (tensor::kernels::Isa isa : isas) {
        tensor::kernels::ScopedIsa scoped(isa);
        fake_quantize(fmt, in.data(), got_out.data(), got_gate.data(), n);
        const auto nbytes = static_cast<std::size_t>(n) * sizeof(float);
        if (std::memcmp(want_out.data(), got_out.data(), nbytes) == 0 &&
            std::memcmp(want_gate.data(), got_gate.data(), nbytes) == 0) {
          continue;
        }
        for (Index i = 0; i < n; ++i) {
          const auto k = static_cast<std::size_t>(i);
          std::uint32_t x, w, g;
          std::memcpy(&x, &in[k], 4);
          std::memcpy(&w, &want_out[k], 4);
          std::memcpy(&g, &got_out[k], 4);
          ASSERT_EQ(w, g) << tensor::kernels::isa_name(isa) << " "
                          << fmt.to_string() << " input bits 0x" << std::hex
                          << x;
          ASSERT_EQ(want_gate[k], got_gate[k])
              << tensor::kernels::isa_name(isa) << " " << fmt.to_string()
              << " gate, input bits 0x" << std::hex << x;
        }
      }
    }
  }
}

TEST(WeightTransform, GateBlocksSaturatedValues) {
  FixedPointWeightTransform t(FixedPointFormat{.total_bits = 4,
                                               .integer_bits = 1});
  Tensor raw({4}, std::vector<float>{0.5f, 2.0f, -3.0f, -0.25f});
  Tensor eff({4}), gate({4});
  t.apply(raw, eff, gate);
  EXPECT_FLOAT_EQ(eff[0], 0.5f);
  EXPECT_FLOAT_EQ(eff[1], 0.875f);   // clipped high
  EXPECT_FLOAT_EQ(eff[2], -1.0f);    // clipped low
  EXPECT_FLOAT_EQ(eff[3], -0.25f);
  EXPECT_FLOAT_EQ(gate[0], 1.0f);
  EXPECT_FLOAT_EQ(gate[1], 0.0f);
  EXPECT_FLOAT_EQ(gate[2], 0.0f);
  EXPECT_FLOAT_EQ(gate[3], 1.0f);
}

TEST(QuantActivationLayer, ForwardQuantisesBackwardGates) {
  QuantActivation layer(FixedPointFormat{.total_bits = 4, .integer_bits = 1});
  Tensor x({3}, std::vector<float>{0.3f, 1.7f, -0.06f});
  nn::TapeSlot slot;
  Tensor y = layer.forward(x, false, slot);
  EXPECT_FLOAT_EQ(y[0], 0.25f);
  EXPECT_FLOAT_EQ(y[1], 0.875f);  // saturated
  EXPECT_FLOAT_EQ(y[2], 0.0f);    // -0.06/0.125 = -0.48 rounds to zero
  Tensor g({3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  Tensor gx = layer.backward(g, slot);
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[1], 0.0f);  // gradient blocked at the clip
  EXPECT_FLOAT_EQ(gx[2], 1.0f);
}

TEST(QuantizeModel, InsertsActivationLayersAndTransforms) {
  nn::Sequential base = models::make_lenet5_small(7);
  const std::size_t n_before = base.num_layers();
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8)});
  EXPECT_GT(q.num_layers(), n_before);
  // every compressible parameter carries the transform
  for (nn::Parameter* p : q.parameters()) {
    if (p->compressible) {
      EXPECT_NE(p->transform, nullptr) << p->name;
    } else {
      EXPECT_EQ(p->transform, nullptr) << p->name;
    }
  }
  // the original model is untouched
  for (nn::Parameter* p : base.parameters()) EXPECT_EQ(p->transform, nullptr);
}

TEST(QuantizeModel, WeightOnlyModeAddsNoLayers) {
  nn::Sequential base = models::make_lenet5_small(7);
  const std::size_t n_before = base.num_layers();
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8),
                            .quantize_weights = true,
                            .quantize_activations = false});
  EXPECT_EQ(q.num_layers(), n_before);
}

TEST(QuantizeModel, OutputsLieOnQuantisedPath) {
  // With activation quantisation at 4 bits, all intermediate activations
  // must be within the format's representable range.
  nn::Sequential base = models::make_lenet5_small(7);
  const FixedPointFormat fmt = FixedPointFormat::paper_format(4);
  nn::Sequential q =
      quantize_model(base, QuantizeOptions{.format = fmt});
  Tensor x = random_batch(Shape{2, 1, 28, 28}, 51);
  Tensor h = x;
  nn::ForwardTape tape(/*accumulate_param_grads=*/false);
  for (std::size_t i = 0; i < q.num_layers(); ++i) {
    h = q.layer(i).forward(h, false, tape.slot(i));
    if (dynamic_cast<QuantActivation*>(&q.layer(i)) != nullptr) {
      EXPECT_GE(tensor::min_value(h), fmt.lo());
      EXPECT_LE(tensor::max_value(h), fmt.hi());
    }
  }
}

TEST(QuantizeModel, HighBitwidthPreservesPredictions) {
  // 32-bit fixed point (4.28) is a near-noop for trained-scale weights:
  // predictions must match the float model on random inputs.
  nn::Sequential base = models::make_lenet5_small(7);
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(32)});
  Tensor x = random_batch(Shape{8, 1, 28, 28}, 52);
  std::vector<int> pf = nn::predict(base, x);
  std::vector<int> pq = nn::predict(q, x);
  EXPECT_EQ(pf, pq);
}

TEST(StripQuantization, RemovesEverything) {
  nn::Sequential base = models::make_lenet5_small(7);
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(4)});
  nn::Sequential back = strip_quantization(q);
  EXPECT_EQ(back.num_layers(), base.num_layers());
  for (nn::Parameter* p : back.parameters()) EXPECT_EQ(p->transform, nullptr);
}

TEST(QuantAwareTraining, StepImprovesQuantisedLoss) {
  // One SGD step through the STE must reduce the training loss of the
  // quantised model (sanity that gradients are usable).
  util::Rng rng(61);
  nn::Sequential base("tiny");
  base.emplace<nn::Linear>(8, 10, rng, "fc");
  nn::Sequential q = quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(8)});
  Tensor x = random_batch(Shape{16, 8}, 62);
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 10);
  const double before = nn::evaluate_loss(q, x, labels);
  nn::TrainConfig tc;
  tc.epochs = 12;
  tc.batch_size = 16;
  tc.base_lr = 0.1f;
  tc.use_paper_lr_schedule = false;
  nn::train_classifier(q, x, labels, tc);
  const double after = nn::evaluate_loss(q, x, labels);
  EXPECT_LT(after, before);
}

// The parameter gradients of one training backward (backward_params, no
// ∇x) against those of the full backward off the same forward: equal bit
// for bit, after a training step has moved the weights. On the quantised
// model the first parameterised layer is conv1, so `skipped` (quant_in)
// gets no backward at all.
void expect_backward_params_matches_full(nn::Sequential& model,
                                         const Shape& image_shape,
                                         const char* skipped = nullptr) {
  std::vector<Index> dims = image_shape.dims();
  dims.insert(dims.begin(), 8);
  const Tensor x = random_batch(Shape{dims}, 71);
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) labels.push_back(i % 10);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  tc.use_paper_lr_schedule = false;
  nn::train_classifier(model, x, labels, tc);

  nn::ForwardTape tape(/*accumulate_param_grads=*/true);
  const Tensor logits = model.forward(random_batch(Shape{dims}, 72),
                                      /*train=*/true, tape);
  const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
  model.zero_grad();
  model.backward(loss.grad_logits, tape);
  std::vector<Tensor> full;
  for (const nn::Parameter* p : model.parameters()) full.push_back(p->grad);

  model.zero_grad();
  obs::Histogram* skipped_ns =
      skipped == nullptr
          ? nullptr
          : &obs::histogram(std::string(skipped) + ".backward_ns");
  const std::uint64_t skipped_before =
      skipped_ns == nullptr ? 0 : skipped_ns->count();
  model.backward_params(loss.grad_logits, tape);
  if (skipped_ns != nullptr) {
    EXPECT_EQ(skipped_ns->count(), skipped_before) << skipped;
  }
  const std::vector<nn::Parameter*> params = model.parameters();
  ASSERT_EQ(params.size(), full.size());
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Tensor& got = params[k]->grad;
    ASSERT_EQ(got.shape(), full[k].shape()) << params[k]->name;
    EXPECT_EQ(std::memcmp(got.data(), full[k].data(),
                          static_cast<std::size_t>(got.numel()) * 4),
              0)
        << params[k]->name;
  }
  // conv1's weight gradient is really there, not two zero tensors.
  float norm = 0.0f;
  for (float v : params[0]->grad.flat()) norm += std::fabs(v);
  EXPECT_GT(norm, 0.0f) << params[0]->name;
}

TEST(TrainingBackward, ParamGradsBitwiseEqualFullBackward) {
  nn::Sequential lenet = models::make_lenet5_small(73);
  expect_backward_params_matches_full(lenet, Shape{1, 28, 28});
  nn::Sequential cifar = quantize_model(
      models::make_cifarnet_small(74),
      QuantizeOptions{.format = FixedPointFormat::paper_format(8)});
  ASSERT_EQ(cifar.layer(0).name(), "quant_in");
  expect_backward_params_matches_full(cifar, Shape{3, 32, 32}, "quant_in");
}

}  // namespace
}  // namespace con::compress
