// The deployed-int8 backend against its semantic oracle.
//
// compress/integer_exec.h is the deliberately naive int64 reference; this
// file checks, with zero tolerance, that the production backend reproduces
// it bit for bit: nn::Linear/Conv2d::forward_int8 (packed panels, int32
// accumulators, kernel-table requantisation) on every ISA, the whole-model
// compress::integer_forward walk, and the off-grid / headroom diagnostics
// that keep a mismatched format key from silently re-rounding weights.
// Suites are named Integer*/Int8* so the CI native job's
// -R 'Kernel|Gemm|Integer|Int8' filter runs them under forced AVX2.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "compress/fixed_point.h"
#include "compress/integer_exec.h"
#include "compress/integer_model.h"
#include "compress/quant_activation.h"
#include "models/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/sequential.h"
#include "obs/metrics.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "test_helpers.h"

namespace con::compress {
namespace {

using con::testing::random_batch;
using tensor::Index;
using tensor::Shape;
using tensor::Tensor;
namespace kernels = con::tensor::kernels;

// Scalar first, then AVX2 when the host can run it: the backend claims
// bit-identity across all of them (dispatch.h integer precision contract).
std::vector<kernels::Isa> all_isas() {
  std::vector<kernels::Isa> out = {kernels::Isa::kScalar};
  if (kernels::isa_supported(kernels::Isa::kAvx2)) {
    out.push_back(kernels::Isa::kAvx2);
  }
  return out;
}

void expect_bits_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, a.data() + i, 4);
    std::memcpy(&bb, b.data() + i, 4);
    ASSERT_EQ(ba, bb) << what << " element " << i << ": " << a[i] << " vs "
                      << b[i];
  }
}

// Exact float equality (zero tolerance, but -0 == +0): the fake-quant
// float path can produce a negative zero (nearbyint of a tiny negative
// accumulator) where the integer path's code 0 is always +0 — numerically
// the same grid point.
void expect_values_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

nn::Int8FormatKey key_for(const FixedPointFormat& wfmt,
                          const FixedPointFormat& afmt) {
  return nn::Int8FormatKey{.weight_total_bits = wfmt.total_bits,
                           .weight_integer_bits = wfmt.integer_bits,
                           .act_total_bits = afmt.total_bits,
                           .act_integer_bits = afmt.integer_bits};
}

// Snap a parameter onto `fmt`'s grid the way quantize_model does: attach
// the transform and bump so the packed caches rebuild.
void attach_weight_format(nn::Parameter& p, const FixedPointFormat& fmt) {
  p.transform = std::make_shared<FixedPointWeightTransform>(fmt);
  p.bump_version();
}

// ---- off-grid diagnostics (the lowering refuses to re-round) ---------------

TEST(IntegerExecDiagnostics, LowerLinearNamesIndexValueAndFormat) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  // Grid points except element 4 — 0.017 is off the 2⁻⁶ grid.
  Tensor w({2, 3}, std::vector<float>{0.25f, -0.5f, 0.015625f, 0.0f, 0.017f,
                                      -0.125f});
  Tensor b({2});
  try {
    lower_linear(w, b, fmt, fmt);
    FAIL() << "off-grid weight must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("weight[4]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0.017"), std::string::npos) << msg;
    EXPECT_NE(msg.find(fmt.to_string()), std::string::npos) << msg;
    EXPECT_NE(msg.find("fixed_point_quantize"), std::string::npos) << msg;
  }
}

TEST(IntegerExecDiagnostics, LowerConv2dSharesTheDiagnostic) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(4);
  Tensor w({2, 4}, 0.25f);  // on the 2⁻³ grid...
  w[6] = 0.3f;              // ...except patch element 6
  Tensor b({2});
  try {
    lower_conv2d(w, b, fmt, fmt);
    FAIL() << "off-grid conv weight must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("weight[6]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("0.3"), std::string::npos) << msg;
    EXPECT_NE(msg.find(fmt.to_string()), std::string::npos) << msg;
  }
}

// ---- conv oracle vs fake-quant float path ----------------------------------

class IntegerExecConvTest : public ::testing::TestWithParam<int> {};

TEST_P(IntegerExecConvTest, OracleMatchesFakeQuantExactly) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(GetParam());
  util::Rng rng(23);
  Tensor w({5, 3 * 3 * 3});
  tensor::fill_normal(w, rng, 0.0f, 0.2f);
  const Tensor wq = fixed_point_quantize(w, fmt);
  Tensor b({5});
  tensor::fill_normal(b, rng, 0.0f, 0.1f);
  const Tensor x = random_batch(Shape{2, 3, 8, 8}, 24);
  const tensor::Conv2dGeometry g{.in_channels = 3,
                                 .in_h = 8,
                                 .in_w = 8,
                                 .kernel_h = 3,
                                 .kernel_w = 3,
                                 .stride = 1,
                                 .padding = 1};
  const IntegerConv2d layer = lower_conv2d(wq, b, fmt, fmt);
  const Tensor yi = integer_conv2d_forward(layer, x, g);
  const Tensor yf = fake_quant_conv2d_forward(wq, b, fmt, fmt, x, g);
  expect_values_equal(yf, yi, "conv oracle vs fake-quant");
}

INSTANTIATE_TEST_SUITE_P(PaperBitwidths, IntegerExecConvTest,
                         ::testing::Values(4, 8));

// ---- forward_int8 vs the int64 oracle, on every ISA ------------------------

TEST(Int8Backend, LinearForwardMatchesOracleOnEveryIsa) {
  for (int bits : {4, 8}) {
    const FixedPointFormat wfmt = FixedPointFormat::paper_format(bits);
    const FixedPointFormat afmt = FixedPointFormat::paper_format(8);
    util::Rng rng(31);
    // out = 6 and in = 10 leave tile remainders on both int8 strip widths.
    nn::Linear lin(10, 6, rng, "fc");
    attach_weight_format(lin.weight(), wfmt);
    const Tensor wq = fixed_point_quantize(lin.weight().value, wfmt);
    const IntegerLinear oracle =
        lower_linear(wq, lin.bias().value, wfmt, afmt);
    const Tensor x = random_batch(Shape{5, 10}, 32);
    const Tensor want = integer_linear_forward(oracle, x);
    for (kernels::Isa isa : all_isas()) {
      kernels::ScopedIsa scoped(isa);
      const Tensor got = lin.forward_int8(x, key_for(wfmt, afmt));
      expect_bits_equal(want, got, kernels::isa_name(isa));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Int8Backend, ConvForwardMatchesOracleOnEveryIsa) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  util::Rng rng(41);
  // 5 output channels (A strip remainder) over a padded 8×8 plane; the
  // batched im2col gives n = 2·64 = 128 columns (a whole number of B
  // strips) — the second case below leaves a column remainder too.
  nn::Conv2d conv(
      nn::Conv2dSpec{
          .in_channels = 3, .out_channels = 5, .kernel = 3, .padding = 1},
      rng, "conv");
  attach_weight_format(conv.weight(), fmt);
  const Tensor wq = fixed_point_quantize(conv.weight().value, fmt);
  const IntegerConv2d oracle = lower_conv2d(wq, conv.bias().value, fmt, fmt);
  const tensor::Conv2dGeometry g{.in_channels = 3,
                                 .in_h = 8,
                                 .in_w = 8,
                                 .kernel_h = 3,
                                 .kernel_w = 3,
                                 .stride = 1,
                                 .padding = 1};
  const Tensor x = random_batch(Shape{2, 3, 8, 8}, 42);
  const Tensor want = integer_conv2d_forward(oracle, x, g);
  for (kernels::Isa isa : all_isas()) {
    kernels::ScopedIsa scoped(isa);
    const Tensor got = conv.forward_int8(x, key_for(fmt, fmt));
    expect_bits_equal(want, got, kernels::isa_name(isa));
    if (HasFatalFailure()) return;
  }
  // 7×7 input through the same layer: oh·ow = 49 columns per sample, so
  // the im2col matrix ends mid-strip (3·49 = 147 = 9·16 + 3).
  const tensor::Conv2dGeometry g2{.in_channels = 3,
                                  .in_h = 7,
                                  .in_w = 7,
                                  .kernel_h = 3,
                                  .kernel_w = 3,
                                  .stride = 1,
                                  .padding = 1};
  const Tensor x2 = random_batch(Shape{3, 3, 7, 7}, 43);
  const Tensor want2 = integer_conv2d_forward(oracle, x2, g2);
  for (kernels::Isa isa : all_isas()) {
    kernels::ScopedIsa scoped(isa);
    const Tensor got2 = conv.forward_int8(x2, key_for(fmt, fmt));
    expect_bits_equal(want2, got2, kernels::isa_name(isa));
    if (HasFatalFailure()) return;
  }
}

// ---- int8 panel cache: fingerprint invalidation ----------------------------

std::uint64_t int8_misses() {
  return obs::counter("packed_cache.int8.miss").value();
}

TEST(Int8PanelCache, FrozenWeightsServeCachedPanels) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  util::Rng rng(51);
  nn::Linear lin(8, 4, rng, "fc");
  attach_weight_format(lin.weight(), fmt);
  const Tensor x = random_batch(Shape{2, 8}, 52);
  const nn::Int8FormatKey key = key_for(fmt, fmt);
  const Tensor y0 = lin.forward_int8(x, key);  // cold pack
  const std::uint64_t before = int8_misses();
  const Tensor y1 = lin.forward_int8(x, key);
  EXPECT_EQ(int8_misses(), before)
      << "repeated int8 forwards against frozen weights must reuse panels";
  expect_bits_equal(y0, y1, "cached panels");
}

TEST(Int8PanelCache, WeightUpdateRepacksAndResultsFollow) {
  const FixedPointFormat fmt = FixedPointFormat::paper_format(8);
  util::Rng rng(53);
  nn::Linear lin(8, 4, rng, "fc");
  attach_weight_format(lin.weight(), fmt);
  const Tensor x = random_batch(Shape{2, 8}, 54);
  const nn::Int8FormatKey key = key_for(fmt, fmt);
  (void)lin.forward_int8(x, key);

  // In-place weight edit + bump (the optimizer-step contract): the next
  // int8 forward must repack and match a fresh oracle lowering.
  lin.weight().value[3] += 0.5f;
  lin.weight().bump_version();
  const std::uint64_t before = int8_misses();
  const Tensor got = lin.forward_int8(x, key);
  EXPECT_GT(int8_misses(), before)
      << "a version bump must invalidate the int8 panels";
  const Tensor wq = fixed_point_quantize(lin.weight().value, fmt);
  const IntegerLinear oracle = lower_linear(wq, lin.bias().value, fmt, fmt);
  expect_bits_equal(integer_linear_forward(oracle, x), got,
                    "post-update forward");

  // The bias participates in the fingerprint too (its codes are baked into
  // the panels at accumulator scale).
  lin.bias().value[0] += 0.25f;
  lin.bias().bump_version();
  const std::uint64_t before_bias = int8_misses();
  const Tensor got_bias = lin.forward_int8(x, key);
  EXPECT_GT(int8_misses(), before_bias)
      << "a bias bump must invalidate the int8 panels";
  const IntegerLinear oracle_bias =
      lower_linear(wq, lin.bias().value, fmt, fmt);
  expect_bits_equal(integer_linear_forward(oracle_bias, x), got_bias,
                    "post-bias-update forward");
}

TEST(Int8PanelCache, FormatKeyIsPartOfTheFingerprint) {
  // 4-bit grid points are also 8-bit grid points (2⁻³ ⊂ 2⁻⁶), so the same
  // weights are valid under both keys and only the cache fingerprint keeps
  // the panel sets apart.
  const FixedPointFormat f4 = FixedPointFormat::paper_format(4);
  const FixedPointFormat f8 = FixedPointFormat::paper_format(8);
  util::Rng rng(55);
  nn::Linear lin(6, 3, rng, "fc");
  attach_weight_format(lin.weight(), f4);
  const Tensor x = random_batch(Shape{2, 6}, 56);
  const Tensor wq = fixed_point_quantize(lin.weight().value, f4);

  const Tensor y4 = lin.forward_int8(x, key_for(f4, f4));
  const std::uint64_t before = int8_misses();
  const Tensor y8 = lin.forward_int8(x, key_for(f4, f8));
  EXPECT_GT(int8_misses(), before)
      << "a different activation format must rebuild the panels";
  expect_bits_equal(
      integer_linear_forward(lower_linear(wq, lin.bias().value, f4, f4), x),
      y4, "4-bit activations");
  expect_bits_equal(
      integer_linear_forward(lower_linear(wq, lin.bias().value, f4, f8), x),
      y8, "8-bit activations");
}

TEST(Int8PanelCache, MismatchedKeyThrowsInsteadOfReRounding) {
  // Weights on the 8-bit grid are generally NOT on the 4-bit grid: asking
  // for 4-bit panels must throw the off-grid diagnostic, never re-round.
  const FixedPointFormat f8 = FixedPointFormat::paper_format(8);
  const FixedPointFormat f4 = FixedPointFormat::paper_format(4);
  util::Rng rng(57);
  nn::Linear lin(6, 3, rng, "fc");
  attach_weight_format(lin.weight(), f8);
  // Guarantee at least one weight off the coarser grid.
  lin.weight().value[0] = 0.015625f;  // 2⁻⁶: on the 8-bit grid only
  lin.weight().bump_version();
  const Tensor x = random_batch(Shape{2, 6}, 58);
  try {
    (void)lin.forward_int8(x, key_for(f4, f4));
    FAIL() << "a key that does not match the transform must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("weight["), std::string::npos) << msg;
    EXPECT_NE(msg.find("4-bit"), std::string::npos) << msg;
  }
}

// ---- whole-model integer execution -----------------------------------------

nn::Sequential quantized_lenet(int bits, bool activations = true) {
  nn::Sequential base = models::make_lenet5_small(7);
  return quantize_model(
      base, QuantizeOptions{.format = FixedPointFormat::paper_format(bits),
                            .quantize_weights = true,
                            .quantize_activations = activations});
}

TEST(IntegerModel, BlockerExplainsExactlyWhyAModelCannotRun) {
  nn::Sequential plain = models::make_lenet5_small(7);
  EXPECT_NE(integer_blocker(plain).find("not quantised"), std::string::npos);
  EXPECT_FALSE(integer_executable(plain));

  nn::Sequential weights_only = quantized_lenet(8, /*activations=*/false);
  EXPECT_NE(integer_blocker(weights_only).find("QuantActivation"),
            std::string::npos)
      << "weight-only quantisation leaves activations unquantised";

  nn::Sequential wide = quantized_lenet(16);
  EXPECT_NE(integer_blocker(wide).find("does not fit the int8 backend"),
            std::string::npos)
      << "16-bit formats exceed the int8 backend";

  for (int bits : {4, 8}) {
    nn::Sequential q = quantized_lenet(bits);
    EXPECT_EQ(integer_blocker(q), "") << bits << "-bit model must qualify";
    EXPECT_TRUE(integer_executable(q));
  }
}

TEST(IntegerModel, IntegerFormatsReportTheModelWidePair) {
  nn::Sequential q = quantized_lenet(8);
  const auto [wfmt, afmt] = integer_formats(q);
  EXPECT_EQ(wfmt.total_bits, 8);
  EXPECT_EQ(wfmt.integer_bits, 2);
  EXPECT_EQ(afmt.total_bits, 8);
  EXPECT_EQ(afmt.integer_bits, 2);

  nn::Sequential plain = models::make_lenet5_small(7);
  EXPECT_THROW(integer_formats(plain), std::invalid_argument);

  // A hand-built model with disagreeing weight formats cannot be described
  // by the study's single (weight, activation) derivation axis pair.
  util::Rng rng(61);
  nn::Sequential mixed("mixed");
  mixed.emplace<nn::Linear>(8, 8, rng, "fc1");
  mixed.emplace<QuantActivation>(FixedPointFormat::paper_format(8));
  mixed.emplace<nn::Linear>(8, 4, rng, "fc2");
  mixed.emplace<QuantActivation>(FixedPointFormat::paper_format(8));
  auto params = mixed.parameters();
  attach_weight_format(*params[0], FixedPointFormat::paper_format(8));
  attach_weight_format(*params[2], FixedPointFormat::paper_format(4));
  try {
    integer_formats(mixed);
    FAIL() << "mixed weight formats must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mixed weight formats"),
              std::string::npos)
        << e.what();
  }
}

TEST(IntegerModel, ForwardThrowsTheBlockerText) {
  nn::Sequential plain = models::make_lenet5_small(7);
  const Tensor x = random_batch(Shape{2, 1, 28, 28}, 71);
  try {
    integer_forward(plain, x);
    FAIL() << "a float model must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("integer_forward"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not quantised"), std::string::npos) << msg;
  }
}

TEST(IntegerModel, ForwardIsIsaInvariant) {
  // The whole-model walk composes only bit-identical pieces (int8 layers
  // and the float entries of every table), so the deployed logits must not
  // depend on the kernel table at all.
  nn::Sequential q = quantized_lenet(8);
  const Tensor x = random_batch(Shape{4, 1, 28, 28}, 72);
  const Tensor want = integer_forward(q, x);
  for (kernels::Isa isa : all_isas()) {
    kernels::ScopedIsa scoped(isa);
    expect_bits_equal(want, integer_forward(q, x), kernels::isa_name(isa));
    if (HasFatalFailure()) return;
  }
}

TEST(IntegerModel, PredictIsInvariantUnderBatchSplit) {
  // integer_predict parallelises over batches; every batch writes only its
  // own slots and the int8 path itself is split-invariant, so any batch
  // size must produce identical predictions.
  nn::Sequential q = quantized_lenet(4);
  const Tensor x = random_batch(Shape{11, 1, 28, 28}, 73);
  const std::vector<int> p64 = integer_predict(q, x);
  EXPECT_EQ(p64, integer_predict(q, x, /*batch_size=*/3));
  EXPECT_EQ(p64, integer_predict(q, x, /*batch_size=*/1));
  EXPECT_EQ(p64.size(), 11u);
}

TEST(IntegerModel, AccuracyCountsArgmaxMatches) {
  nn::Sequential q = quantized_lenet(8);
  const Tensor x = random_batch(Shape{10, 1, 28, 28}, 74);
  const std::vector<int> preds = integer_predict(q, x);
  // Labels equal to the predictions → accuracy 1; shift one → 0.9.
  std::vector<int> labels = preds;
  EXPECT_EQ(integer_accuracy(q, x, labels), 1.0);
  labels[0] = (labels[0] + 1) % 10;
  EXPECT_EQ(integer_accuracy(q, x, labels), 0.9);
  labels.pop_back();
  EXPECT_THROW(integer_accuracy(q, x, labels), std::invalid_argument);
}

}  // namespace
}  // namespace con::compress
