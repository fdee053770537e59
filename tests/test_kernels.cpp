// Oracle suite for the runtime-dispatched micro-kernel tables
// (tensor/kernels/dispatch.h).
//
// The scalar table is the reference; this file checks every other table
// against it under the precision contract of DESIGN.md §5: every entry —
// float GEMM tiles (NN/TN, dense and zero-skip), the NT double tile and
// its operand packers, the sparse row-axpy, elementwise, fixed-point
// fake_quant, panel pack_row and all of int8 — is
// bit-identical to scalar at every tile-remainder shape, on random, pruned
// and adversarially-scaled inputs. The dispatch surface is checked too:
// first use activates the best supported ISA, unsupported requests fall
// back to scalar, ScopedIsa restores.
//
// Each comparison computes its reference under an explicit
// ScopedIsa(kScalar), since the default table is the best one the host
// supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/kernels/dispatch.h"
#include "tensor/kernels/kernel_scalar.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

using con::tensor::Index;
using con::tensor::Tensor;
namespace gemm = con::tensor::gemm;
namespace kernels = con::tensor::kernels;

std::vector<kernels::Isa> supported_simd_isas() {
  std::vector<kernels::Isa> out;
  if (kernels::isa_supported(kernels::Isa::kAvx2)) {
    out.push_back(kernels::Isa::kAvx2);
  }
  return out;
}

// True bit-level equality (ASSERT_EQ on floats treats -0 == +0 and fails
// on NaN == NaN; the contract here is about the exact bits).
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

enum class Fill { kRandom, kPruned, kScaled };

Tensor make_input(Index rows, Index cols, std::uint64_t seed, Fill fill) {
  con::util::Rng rng(seed);
  Tensor t({rows, cols});
  con::tensor::fill_normal(t, rng, 0.0f, 1.0f);
  if (fill == Fill::kPruned) {
    for (float& v : t.flat()) {
      if (rng.uniform() < 0.6) v = 0.0f;
    }
  } else if (fill == Fill::kScaled) {
    // Adversarial dynamic range: magnitudes spread over ~2^40 so partial
    // sums cancel catastrophically if a kernel reorders anything.
    for (float& v : t.flat()) {
      const int e = static_cast<int>(rng.uniform() * 40.0) - 20;
      v = std::ldexp(v, e);
    }
  }
  return t;
}

// ---- dispatch surface -------------------------------------------------------

TEST(KernelDispatch, FirstUseActivatesTheBestSupportedIsa) {
  // No test leaves a forced table behind (ScopedIsa restores), so the
  // active table is the one first use resolved: AVX2 wherever the host
  // runs it, scalar otherwise.
  const kernels::Isa best = kernels::isa_supported(kernels::Isa::kAvx2)
                                ? kernels::Isa::kAvx2
                                : kernels::Isa::kScalar;
  EXPECT_EQ(kernels::active_isa(), best);
  EXPECT_EQ(kernels::active().isa, best);
}

TEST(KernelDispatch, SetIsaReportsTheActivatedTable) {
  const kernels::Isa prev = kernels::active_isa();
  const kernels::Isa got = kernels::set_isa(kernels::Isa::kAvx2);
  if (kernels::isa_supported(kernels::Isa::kAvx2)) {
    EXPECT_EQ(got, kernels::Isa::kAvx2);
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::kAvx2);
  } else {
    EXPECT_EQ(got, kernels::Isa::kScalar);
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
  }
  EXPECT_EQ(kernels::set_isa(kernels::Isa::kScalar), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
  kernels::set_isa(prev);
}

TEST(KernelDispatch, ScopedIsaRestoresThePreviousTable) {
  const kernels::Isa prev = kernels::active_isa();
  {
    kernels::ScopedIsa scalar(kernels::Isa::kScalar);
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
    for (kernels::Isa isa : supported_simd_isas()) {
      {
        kernels::ScopedIsa scoped(isa);
        EXPECT_EQ(kernels::active_isa(), isa);
      }
      EXPECT_EQ(kernels::active_isa(), kernels::Isa::kScalar);
    }
  }
  EXPECT_EQ(kernels::active_isa(), prev);
}

TEST(KernelDispatch, EveryActivatedTableIsFullyPopulated) {
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_simd_isas()) isas.push_back(isa);
  for (kernels::Isa isa : isas) {
    kernels::ScopedIsa scoped(isa);
    const kernels::KernelTable& kt = kernels::active();
    EXPECT_EQ(kt.isa, isa);
    EXPECT_GT(kt.small_gemm_flops, 0);
    EXPECT_NE(kt.nn_4x8, nullptr);
    EXPECT_NE(kt.nt_4x8, nullptr);
    EXPECT_NE(kt.nt_pack_a, nullptr);
    EXPECT_NE(kt.nt_pack_b, nullptr);
    EXPECT_NE(kt.axpy, nullptr);
    EXPECT_NE(kt.axpy_out, nullptr);
    EXPECT_NE(kt.add, nullptr);
    EXPECT_NE(kt.sub, nullptr);
    EXPECT_NE(kt.mul, nullptr);
    EXPECT_NE(kt.scale, nullptr);
    EXPECT_NE(kt.clamp, nullptr);
    EXPECT_NE(kt.relu, nullptr);
    EXPECT_NE(kt.sign, nullptr);
    EXPECT_NE(kt.relu_bwd, nullptr);
    EXPECT_NE(kt.fake_quant, nullptr);
    EXPECT_NE(kt.pack_row, nullptr);
    EXPECT_NE(kt.int8_4x16, nullptr);
    EXPECT_NE(kt.quant_i8, nullptr);
    EXPECT_NE(kt.requant_col_bias, nullptr);
    EXPECT_NE(kt.requant_row_bias, nullptr);
  }
}

// ---- float GEMM: bit-identical ---------------------------------------------

// One direct nn_4x8 call on scalar and on the active table into
// sentinel-filled 4×8 tiles: the kernel must write exactly the mv×nv corner,
// with the scalar bits. `ap` is [depth, 4] and `bp` [depth, 8], the strip
// layout ap[k*4 + i], bp[k*8 + j] (dispatch.h).
void expect_tile_matches_scalar(kernels::Isa isa, const Tensor& ap,
                                const Tensor& bp,
                                const std::vector<std::int32_t>* klist,
                                Index mv, Index nv) {
  const Index depth = ap.dim(0);
  const std::int32_t* kl = klist == nullptr ? nullptr : klist->data();
  const Index nk = klist == nullptr ? 0 : static_cast<Index>(klist->size());
  Tensor want({gemm::kStripA, gemm::kStripB});
  want.fill(-7.0f);
  Tensor got = want;
  kernels::scalar::nn_4x8(depth, ap.data(), bp.data(), kl, nk, want.data(),
                          gemm::kStripB, mv, nv);
  kernels::ScopedIsa scoped(isa);
  kernels::active().nn_4x8(depth, ap.data(), bp.data(), kl, nk, got.data(),
                           gemm::kStripB, mv, nv);
  expect_bits_equal(want, got, "nn_4x8 tile");
}

// Shapes covering every mv (1..4) and nv (1..8) tile remainder, the panel
// boundary, and odd and even depth.
struct GemmCase {
  Index m, k, n;
};
const GemmCase kGemmCases[] = {
    {1, 1, 1},  {2, 3, 5},   {3, 7, 8},   {4, 8, 9},   {5, 9, 16},
    {7, 16, 7}, {8, 17, 24}, {9, 32, 31}, {16, 33, 40}, {33, 64, 65},
};

TEST(KernelOracle, FloatGemmBitIdentical) {
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Fill fill : {Fill::kRandom, Fill::kPruned, Fill::kScaled}) {
      // The tile itself at every valid corner, odd and even depth.
      for (Index depth : {1, 2, 7, 8, 33}) {
        const Tensor ap = make_input(depth, gemm::kStripA, 500 + depth, fill);
        const Tensor bp = make_input(depth, gemm::kStripB, 600 + depth, fill);
        for (Index mv = 1; mv <= gemm::kStripA; ++mv) {
          for (Index nv = 1; nv <= gemm::kStripB; ++nv) {
            expect_tile_matches_scalar(isa, ap, bp, nullptr, mv, nv);
            if (HasFatalFailure()) return;
          }
        }
      }
      // Whole products in every form that runs the float tile: packed A,
      // packed B and packed transposed A. The packed-operand entries never
      // take the small-size fallback, so the table kernel runs at every
      // shape.
      for (const GemmCase& c : kGemmCases) {
        const Tensor a = make_input(c.m, c.k, 1000 + c.m * 7 + c.k, fill);
        const Tensor b = make_input(c.k, c.n, 2000 + c.k * 7 + c.n, fill);
        const Tensor at = make_input(c.k, c.m, 3000 + c.m * 7 + c.k, fill);
        const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
        const auto pb = gemm::pack_colmajor(b, gemm::kStripB);
        const auto pat = gemm::pack_colmajor(at, gemm::kStripA);
        const auto run = [&] {
          return std::vector<Tensor>{gemm::matmul_nn(pa, b),
                                     gemm::matmul_nn(a, pb),
                                     gemm::matmul_tn(pat, b)};
        };
        std::vector<Tensor> want;
        {
          kernels::ScopedIsa scalar(kernels::Isa::kScalar);
          want = run();
        }
        kernels::ScopedIsa scoped(isa);
        const std::vector<Tensor> got = run();
        expect_bits_equal(want[0], got[0], "matmul_nn packed A");
        expect_bits_equal(want[1], got[1], "matmul_nn packed B");
        expect_bits_equal(want[2], got[2], "matmul_tn");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelOracle, FloatGemmZeroSkipStripsAgree) {
  // Skip lists over strips whose listed k still hold zero A rows: scalar
  // skips those rows, the SIMD tiles add ±0 — the bits must agree.
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index depth : {7, 8, 40}) {
      Tensor ap = make_input(depth, gemm::kStripA, 700 + depth, Fill::kRandom);
      const Tensor bp =
          make_input(depth, gemm::kStripB, 800 + depth, Fill::kScaled);
      std::vector<std::int32_t> klist;
      for (Index k = 0; k < depth; ++k) {
        if (k % 3 == 2) continue;  // elided k (odd- and even-length lists)
        klist.push_back(static_cast<std::int32_t>(k));
        ap[k * gemm::kStripA + k % gemm::kStripA] = 0.0f;  // zero A row
      }
      for (Index mv = 1; mv <= gemm::kStripA; ++mv) {
        for (Index nv = 1; nv <= gemm::kStripB; ++nv) {
          expect_tile_matches_scalar(isa, ap, bp, &klist, mv, nv);
          if (HasFatalFailure()) return;
        }
      }
    }
    // End to end: whole strip columns of zeros send matmul_nn down the
    // klist path, and the surviving columns keep zero rows.
    Tensor a = make_input(9, 40, 77, Fill::kRandom);
    for (Index i = 0; i < 9; ++i) {
      for (Index k = 0; k < 40; ++k) {
        // Kill a third of the k range, and one row in four of the rest.
        if (k % 3 == 0 || (i + k) % 4 == 0) a[i * 40 + k] = 0.0f;
      }
    }
    const Tensor b = make_input(40, 23, 78, Fill::kRandom);
    const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
    ASSERT_GT(pa.nnz * 100, static_cast<std::int64_t>(9) * 40 * 25)
        << "input too sparse: it would take the row-axpy path";
    Tensor want;
    {
      kernels::ScopedIsa scalar(kernels::Isa::kScalar);
      want = gemm::matmul_nn(pa, b);
    }
    kernels::ScopedIsa scoped(isa);
    expect_bits_equal(want, gemm::matmul_nn(pa, b), "matmul_nn klist");
  }
}

// ---- NT double kernel: bit-identical ---------------------------------------

TEST(KernelOracle, NtGemmBitIdentical) {
  // Double accumulators make float·float products exact, so fused and
  // unfused accumulation round identically: every ISA must match scalar
  // bit for bit (the Linear-forward contract).
  for (kernels::Isa isa : supported_simd_isas()) {
    for (const GemmCase& c : kGemmCases) {
      const Tensor x = make_input(c.m, c.k, 3000 + c.m, Fill::kScaled);
      const Tensor w = make_input(c.n, c.k, 4000 + c.n, Fill::kScaled);
      const auto pw = gemm::pack_nt(w);
      kernels::ScopedIsa scalar(kernels::Isa::kScalar);
      const Tensor want = gemm::matmul_nt(x, pw);
      kernels::ScopedIsa scoped(isa);
      const Tensor got = gemm::matmul_nt(x, pw);
      expect_bits_equal(want, got, "matmul_nt");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelOracle, NtTileAndPackersBitIdentical) {
  // The NT entries called directly, at every live column count nv (1..8),
  // every live row count mv (1..4), and depths around the 4-wide unroll and
  // the packers' vector widths. The tile resumes from a non-zero double
  // tile, as it does from one K block to the next.
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index kc : {1, 3, 4, 5, 8, 9, 31, 256}) {
      const Tensor a = make_input(4, kc + 3, 900 + kc, Fill::kScaled);
      const Tensor b = make_input(8, kc + 5, 950 + kc, Fill::kScaled);
      for (Index mv = 1; mv <= 4; ++mv) {
        std::vector<double> want(static_cast<std::size_t>(kc * 4), -7.0);
        std::vector<double> got = want;
        kernels::scalar::nt_pack_a(a.data(), kc + 3, mv, kc, want.data());
        {
          kernels::ScopedIsa scoped(isa);
          kernels::active().nt_pack_a(a.data(), kc + 3, mv, kc, got.data());
        }
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)))
            << "nt_pack_a kc=" << kc << " mv=" << mv;
      }
      std::vector<double> ap(static_cast<std::size_t>(kc * 4));
      kernels::scalar::nt_pack_a(a.data(), kc + 3, 4, kc, ap.data());
      for (Index nv = 1; nv <= 8; ++nv) {
        std::vector<double> bwant(static_cast<std::size_t>(nv * kc), -7.0);
        std::vector<double> bgot = bwant;
        kernels::scalar::nt_pack_b(b.data(), kc + 5, nv, kc, bwant.data());
        {
          kernels::ScopedIsa scoped(isa);
          kernels::active().nt_pack_b(b.data(), kc + 5, nv, kc, bgot.data());
        }
        ASSERT_EQ(0, std::memcmp(bwant.data(), bgot.data(),
                                 bwant.size() * sizeof(double)))
            << "nt_pack_b kc=" << kc << " nv=" << nv;
        // Start from a non-zero tile; untouched columns j >= nv keep -7.
        std::vector<double> want(32, -7.0);
        for (int e = 0; e < nv * 4; ++e) {
          want[static_cast<std::size_t>(e)] = std::ldexp(1.0, -e);
        }
        std::vector<double> got = want;
        kernels::scalar::nt_4x8(kc, ap.data(), bwant.data(), kc, want.data(),
                                nv);
        {
          kernels::ScopedIsa scoped(isa);
          kernels::active().nt_4x8(kc, ap.data(), bwant.data(), kc,
                                   got.data(), nv);
        }
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(double)))
            << "nt_4x8 kc=" << kc << " nv=" << nv;
      }
    }
  }
}

// ---- sparse row-axpy: bit-identical ----------------------------------------

TEST(KernelOracle, SparseAxpyPathBitIdentical) {
  // 90% pruned A against raw k-major B drops below the density threshold
  // and takes the row-axpy path; the table's axpy entry never fuses, so
  // the result must be bit-identical on every ISA.
  for (kernels::Isa isa : supported_simd_isas()) {
    con::util::Rng rng(55);
    Tensor a = make_input(64, 48, 56, Fill::kRandom);
    for (float& v : a.flat()) {
      if (rng.uniform() < 0.9) v = 0.0f;
    }
    const Tensor b = make_input(48, 100, 57, Fill::kScaled);
    const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
    ASSERT_LE(pa.nnz * 100, static_cast<std::int64_t>(64) * 48 * 25)
        << "input not sparse enough to exercise the axpy path";
    kernels::ScopedIsa scalar(kernels::Isa::kScalar);
    const Tensor want = gemm::matmul_nn(pa, b);
    kernels::ScopedIsa scoped(isa);
    const Tensor got = gemm::matmul_nn(pa, b);
    expect_bits_equal(want, got, "sparse axpy");
  }
}

// ---- elementwise: bit-identical, including ±0 ------------------------------

Tensor elementwise_input(Index n, std::uint64_t seed) {
  con::util::Rng rng(seed);
  Tensor t({n});
  con::tensor::fill_normal(t, rng, 0.0f, 2.0f);
  // Sprinkle the special values the contract calls out: exact zeros of
  // both signs (relu(-0) must be +0 everywhere) and denormal-range floats.
  for (Index i = 0; i < n; ++i) {
    const double u = rng.uniform();
    if (u < 0.1) t[i] = 0.0f;
    else if (u < 0.2) t[i] = -0.0f;
    else if (u < 0.25) t[i] = std::ldexp(t[i], -120);
  }
  return t;
}

const Index kElemSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1003};

TEST(KernelOracle, ElementwiseBitIdentical) {
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index n : kElemSizes) {
      const Tensor a = elementwise_input(n, 600 + n);
      const Tensor b = elementwise_input(n, 700 + n);
      auto run = [&](auto&& fn) {
        kernels::ScopedIsa scalar(kernels::Isa::kScalar);
        Tensor scalar_out = fn();
        kernels::ScopedIsa scoped(isa);
        Tensor simd_out = fn();
        return std::pair<Tensor, Tensor>(std::move(scalar_out),
                                         std::move(simd_out));
      };
      {
        auto [want, got] = run([&] { return con::tensor::add(a, b); });
        expect_bits_equal(want, got, "add");
      }
      {
        auto [want, got] = run([&] { return con::tensor::sub(a, b); });
        expect_bits_equal(want, got, "sub");
      }
      {
        auto [want, got] = run([&] { return con::tensor::mul(a, b); });
        expect_bits_equal(want, got, "mul");
      }
      {
        auto [want, got] = run([&] { return con::tensor::scale(a, 1.7f); });
        expect_bits_equal(want, got, "scale");
      }
      {
        auto [want, got] =
            run([&] { return con::tensor::add_scaled(a, b, -0.3f); });
        expect_bits_equal(want, got, "add_scaled");
      }
      {
        auto [want, got] = run([&] {
          Tensor out({n});
          con::tensor::add_scaled_into(out, a, b, 2.5f);
          return out;
        });
        expect_bits_equal(want, got, "add_scaled_into");
      }
      {
        auto [want, got] =
            run([&] { return con::tensor::clamp(a, -0.5f, 0.5f); });
        expect_bits_equal(want, got, "clamp");
      }
      {
        auto [want, got] = run([&] { return con::tensor::sign(a); });
        expect_bits_equal(want, got, "sign");
      }
      {
        auto [want, got] = run([&] { return con::tensor::relu(a); });
        expect_bits_equal(want, got, "relu");
        // relu(-0) == +0: no negative zeros may survive.
        for (Index i = 0; i < n; ++i) {
          EXPECT_FALSE(std::signbit(got[i])) << "relu produced -0 at " << i;
        }
      }
      {
        auto [want, got] = run([&] {
          Tensor g = b;
          con::tensor::relu_backward_inplace(g, a);
          return g;
        });
        expect_bits_equal(want, got, "relu_backward");
      }
      if (HasFatalFailure()) return;
    }
  }
}

float float_from_bits(std::uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

// The fake_quant edge cases for one fixed-point grid (step 2⁻ᶠ, bounds
// [lo, hi]): half-step ties of both parities, ±0, the bounds and one step
// beyond, ±inf, NaNs with payloads, subnormals, |x·2^f| past 2²³ (already
// integral) and past 2³¹ (out of int32 range), then random values.
std::vector<float> fake_quant_cases(int f, float lo, float hi,
                                    std::uint64_t seed) {
  const float step = std::ldexp(1.0f, -f);
  std::vector<float> v;
  for (int k = -9; k <= 9; ++k) {
    v.push_back((static_cast<float>(k) + 0.5f) * step);  // even and odd ties
  }
  for (float b : {lo, hi}) {
    v.insert(v.end(), {b, b - step, b + step, b - step / 2, b + step / 2});
  }
  v.insert(v.end(), {0.0f, -0.0f, INFINITY, -INFINITY});
  for (std::uint32_t bits : {0x7fc12345u, 0xffc00001u, 0x7f800001u,
                             0x7fa00000u, 0x00000001u, 0x80000001u,
                             0x007fffffu, 0x807fffffu, 0x7f7fffffu,
                             0xff7fffffu}) {
    v.push_back(float_from_bits(bits));  // NaNs, subnormals, ±FLT_MAX
  }
  for (int e : {23, 24, 30, 31, 32, 40}) {
    for (float m : {1.0f, 1.5f, -1.0f, -1.25f}) {
      v.push_back(m * std::ldexp(1.0f, e - f));
    }
  }
  con::util::Rng rng(seed);
  while (v.size() < 203) {
    v.push_back(rng.uniform_f(2.0f * lo, 2.0f * hi));
  }
  return v;
}

TEST(KernelOracle, FakeQuantBitIdentical) {
  // The paper's fixed-point formats: (total bits, integer bits).
  const std::pair<int, int> formats[] = {{4, 1}, {8, 2}, {16, 4}, {32, 4}};
  const float kSentinel = -7.0f;
  for (kernels::Isa isa : supported_simd_isas()) {
    for (auto [bits, ibits] : formats) {
      const int f = bits - ibits;
      const float inv_step = std::ldexp(1.0f, f);
      const float step = std::ldexp(1.0f, -f);
      const float lo = -std::ldexp(1.0f, ibits - 1);
      const float hi = std::ldexp(1.0f, ibits - 1) - step;
      const std::vector<float> in =
          fake_quant_cases(f, lo, hi, static_cast<std::uint64_t>(bits));
      const auto total = static_cast<Index>(in.size());
      // Every length 0…24 (tails with n mod 8 = 1…7 after 0–2 full
      // vectors) at offsets 0 and 3, then the whole input.
      std::vector<std::pair<Index, Index>> spans;
      for (Index n = 0; n <= 24; ++n) {
        spans.push_back({0, n});
        spans.push_back({3, n});
      }
      spans.push_back({0, total});
      for (auto [off, n] : spans) {
        Tensor want_out({n + 1}, kSentinel), want_gate({n + 1}, kSentinel);
        Tensor got_out({n + 1}, kSentinel), got_gate({n + 1}, kSentinel);
        kernels::scalar::fake_quant(want_out.data(), want_gate.data(),
                                    in.data() + off, inv_step, step, lo, hi,
                                    n);
        {
          kernels::ScopedIsa scoped(isa);
          kernels::active().fake_quant(got_out.data(), got_gate.data(),
                                       in.data() + off, inv_step, step, lo,
                                       hi, n);
        }
        SCOPED_TRACE(std::string(kernels::isa_name(isa)) + " Q" +
                     std::to_string(ibits) + "." + std::to_string(f) +
                     " off=" + std::to_string(off) +
                     " n=" + std::to_string(n));
        expect_bits_equal(want_out, got_out, "fake_quant out");
        expect_bits_equal(want_gate, got_gate, "fake_quant gate");
        if (HasFatalFailure()) return;
      }
      // In place (out aliases in) gives the same bits.
      std::vector<float> inplace = in;
      {
        kernels::ScopedIsa scoped(isa);
        Tensor gate({total});
        kernels::active().fake_quant(inplace.data(), gate.data(),
                                     inplace.data(), inv_step, step, lo, hi,
                                     total);
      }
      Tensor want_out({total}), want_gate({total});
      kernels::scalar::fake_quant(want_out.data(), want_gate.data(),
                                  in.data(), inv_step, step, lo, hi, total);
      expect_bits_equal(want_out, Tensor({total}, inplace),
                        "fake_quant in place");
    }
  }
}

TEST(KernelOracle, ReluToleratesAliasedInPlaceUse) {
  for (kernels::Isa isa : supported_simd_isas()) {
    const Tensor a = elementwise_input(257, 42);
    kernels::ScopedIsa scalar(kernels::Isa::kScalar);
    Tensor want = a;
    con::tensor::relu_inplace(want);
    kernels::ScopedIsa scoped(isa);
    Tensor got = a;
    con::tensor::relu_inplace(got);
    expect_bits_equal(want, got, "relu_inplace");
  }
}

TEST(KernelOracle, BiasAddAndColumnSumsBitIdentical) {
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index cols : {1, 7, 8, 9, 33}) {
      const Tensor m = make_input(5, cols, 800 + cols, Fill::kScaled);
      con::util::Rng rng(900 + static_cast<std::uint64_t>(cols));
      Tensor bias({cols});
      con::tensor::fill_normal(bias, rng, 0.0f, 1.0f);
      Tensor want_m = m, got_m = m;
      Tensor want_acc({cols}), got_acc({cols});
      want_acc.fill(0.125f);
      got_acc.fill(0.125f);
      kernels::ScopedIsa scalar(kernels::Isa::kScalar);
      con::tensor::bias_add_inplace(want_m, bias);
      con::tensor::column_sums_add_inplace(want_acc, m);
      kernels::ScopedIsa scoped(isa);
      con::tensor::bias_add_inplace(got_m, bias);
      con::tensor::column_sums_add_inplace(got_acc, m);
      expect_bits_equal(want_m, got_m, "bias_add");
      expect_bits_equal(want_acc, got_acc, "column_sums_add");
    }
  }
}

// ---- pack_row: identical panels and flags ----------------------------------

TEST(KernelOracle, PackRowMatchesScalarBytesAndFlags) {
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index jn : {1, 7, 8, 9, 16, 17, 63, 64, 65}) {
      const Index depth = 5, k = 3;
      const Index ns = (jn + 7) / 8;
      Tensor src = elementwise_input(jn, 1100 + jn);
      std::vector<float> want_panel(static_cast<std::size_t>(ns * depth * 8),
                                    -7.0f);
      std::vector<float> got_panel = want_panel;
      std::vector<char> want_flags(static_cast<std::size_t>(ns * depth), 9);
      std::vector<char> got_flags = want_flags;
      kernels::scalar::pack_row8(want_panel.data(), src.data(), jn, depth, k,
                                 want_flags.data());
      kernels::ScopedIsa scoped(isa);
      kernels::active().pack_row(got_panel.data(), src.data(), jn, depth, k,
                                 got_flags.data());
      ASSERT_EQ(std::memcmp(want_panel.data(), got_panel.data(),
                            want_panel.size() * sizeof(float)),
                0)
          << "panel bytes differ at jn=" << jn;
      ASSERT_TRUE(std::equal(want_flags.begin(), want_flags.end(),
                             got_flags.begin(),
                             [](char a, char b) { return (a != 0) == (b != 0); }))
          << "flags differ at jn=" << jn;
    }
  }
}

// ---- int8 integer path: bit-identical, no tolerance ------------------------
// The int8 entries are integer arithmetic end to end (dispatch.h): every ISA
// must reproduce the scalar oracle exactly, at every tile remainder, with
// and without pair skip lists.

std::vector<std::int8_t> random_int8_codes(Index n, std::uint64_t seed,
                                           double zero_prob = 0.0) {
  con::util::Rng rng(seed);
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  for (auto& c : out) {
    if (zero_prob > 0.0 && rng.uniform() < zero_prob) {
      c = 0;
    } else {
      c = static_cast<std::int8_t>(static_cast<int>(rng.uniform() * 255.0) -
                                   127);
    }
  }
  return out;
}

TEST(Int8KernelOracle, MicroKernelBitIdenticalAtEveryTileCorner) {
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index kpairs : {Index(1), Index(2), Index(3), Index(7), Index(8)}) {
      // One strip pair of panels in the dispatch.h layout: ap is 4 rows of
      // int16-widened codes, bp 16 columns of int8 codes, pair-interleaved.
      std::vector<std::int16_t> ap(static_cast<std::size_t>(kpairs * 8));
      {
        const auto codes = random_int8_codes(kpairs * 8, 9000 + kpairs);
        for (std::size_t i = 0; i < codes.size(); ++i) ap[i] = codes[i];
      }
      const auto bp = random_int8_codes(kpairs * 32, 9100 + kpairs);
      for (Index mv = 1; mv <= 4; ++mv) {
        for (Index nv = 1; nv <= 16; ++nv) {
          // Sentinel-filled tiles: the kernel must write exactly the mv×nv
          // corner and leave the rest untouched, on every ISA.
          std::vector<std::int32_t> want(4 * 16, -12345);
          std::vector<std::int32_t> got = want;
          kernels::scalar::int8_4x16(kpairs, ap.data(), bp.data(), nullptr, 0,
                                     want.data(), 16, mv, nv);
          kernels::ScopedIsa scoped(isa);
          kernels::active().int8_4x16(kpairs, ap.data(), bp.data(), nullptr, 0,
                                      got.data(), 16, mv, nv);
          ASSERT_EQ(want, got) << kernels::isa_name(isa) << " kpairs=" << kpairs
                               << " mv=" << mv << " nv=" << nv;
        }
      }
      // Pair skip list (every other pair, including an odd-length list):
      // the elided pairs contribute junk in this synthetic setup, so both
      // oracles must honour exactly the listed pairs.
      std::vector<std::int32_t> klist;
      for (Index p = 0; p < kpairs; p += 2) klist.push_back(p);
      std::vector<std::int32_t> want(4 * 16, 0);
      std::vector<std::int32_t> got = want;
      kernels::scalar::int8_4x16(kpairs, ap.data(), bp.data(), klist.data(),
                                 static_cast<Index>(klist.size()), want.data(),
                                 16, 3, 11);
      kernels::ScopedIsa scoped(isa);
      kernels::active().int8_4x16(kpairs, ap.data(), bp.data(), klist.data(),
                                  static_cast<Index>(klist.size()), got.data(),
                                  16, 3, 11);
      ASSERT_EQ(want, got) << kernels::isa_name(isa) << " klist kpairs="
                           << kpairs;
    }
  }
}

struct Int8GemmCase {
  Index m, k, n;
};
// Every A strip remainder (m mod 4), B strip remainder (n mod 16), and k
// parity (odd k exercises the zero-padded final pair).
const Int8GemmCase kInt8GemmCases[] = {
    {1, 1, 1},  {2, 3, 5},   {3, 8, 15},  {4, 9, 16},   {5, 16, 17},
    {7, 17, 31}, {8, 31, 32}, {9, 33, 33}, {17, 64, 47},
};

TEST(Int8KernelOracle, MatmulBitIdenticalAcrossIsasAndSources) {
  for (const Int8GemmCase& c : kInt8GemmCases) {
    // 60% zeros exercise the pair skip lists on both operands.
    const auto a_codes = random_int8_codes(c.m * c.k, 9200 + c.m * 13 + c.k,
                                           0.6);
    const auto b_codes = random_int8_codes(c.n * c.k, 9300 + c.n * 13 + c.k,
                                           0.6);
    const auto pa = gemm::pack_int8_a(a_codes.data(), c.m, c.k);
    const auto pb = gemm::pack_int8_b(b_codes.data(), c.n, c.k);
    // The same logical B as raw k-major storage (the im2col orientation).
    std::vector<std::int8_t> raw(static_cast<std::size_t>(c.k * c.n));
    for (Index j = 0; j < c.n; ++j) {
      for (Index k = 0; k < c.k; ++k) raw[k * c.n + j] = b_codes[j * c.k + k];
    }
    const auto run = [&](const gemm::Int8BSource& src) {
      std::vector<std::int32_t> out(static_cast<std::size_t>(c.m * c.n));
      gemm::matmul_int8(pa, src, c.n, out.data());
      return out;
    };
    const gemm::Int8BSource packed_src{.packed = &pb};
    const gemm::Int8BSource raw_src{.raw = raw.data(), .ld = c.n};
    kernels::ScopedIsa scalar(kernels::Isa::kScalar);
    const std::vector<std::int32_t> want = run(packed_src);
    ASSERT_EQ(want, run(raw_src))
        << "raw k-major source diverged from packed panels at m=" << c.m
        << " k=" << c.k << " n=" << c.n;
    for (kernels::Isa isa : supported_simd_isas()) {
      kernels::ScopedIsa scoped(isa);
      ASSERT_EQ(want, run(packed_src)) << kernels::isa_name(isa);
      ASSERT_EQ(want, run(raw_src)) << kernels::isa_name(isa) << " (raw)";
    }
  }
}

TEST(Int8KernelOracle, MatmulBumpsThePerIsaDispatchCounter) {
  const auto a_codes = random_int8_codes(4 * 8, 9400);
  const auto b_codes = random_int8_codes(16 * 8, 9401);
  const auto pa = gemm::pack_int8_a(a_codes.data(), 4, 8);
  const auto pb = gemm::pack_int8_b(b_codes.data(), 16, 8);
  std::vector<std::int32_t> out(4 * 16);
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_simd_isas()) isas.push_back(isa);
  for (kernels::Isa isa : isas) {
    const std::string name =
        std::string("gemm.dispatch.int8.") + kernels::isa_name(isa);
    const std::uint64_t before = con::obs::counter(name).value();
    kernels::ScopedIsa scoped(isa);
    gemm::matmul_int8(pa, gemm::Int8BSource{.packed = &pb}, 16, out.data());
    EXPECT_EQ(con::obs::counter(name).value(), before + 1) << name;
  }
}

TEST(Int8KernelOracle, PackingPadsOddDepthAndRecordsExactSkipLists) {
  const Index rows = 6, depth = 5;  // odd depth: final pair pads u = 1
  auto codes = random_int8_codes(rows * depth, 9500);
  // Kill pair 1 (k = 2, 3) of every row so the skip lists must elide it.
  for (Index r = 0; r < rows; ++r) {
    codes[r * depth + 2] = 0;
    codes[r * depth + 3] = 0;
  }
  const auto pa = gemm::pack_int8_a(codes.data(), rows, depth);
  EXPECT_EQ(pa.kpairs, 3);
  const Index kpairs = pa.kpairs;
  for (Index s = 0; s < pa.num_strips(); ++s) {
    for (Index i = 0; i < 4; ++i) {
      const Index r = s * 4 + i;
      for (Index p = 0; p < kpairs; ++p) {
        for (Index u = 0; u < 2; ++u) {
          const Index k = 2 * p + u;
          const std::int16_t want =
              (r < rows && k < depth) ? codes[r * depth + k] : 0;
          EXPECT_EQ(pa.data[((s * kpairs + p) * 4 + i) * 2 + u], want)
              << "strip " << s << " row " << i << " pair " << p << " lane "
              << u;
        }
      }
    }
    const std::vector<std::int32_t> strip_pairs(
        pa.nnz_p.begin() + pa.nnz_ptr[static_cast<std::size_t>(s)],
        pa.nnz_p.begin() + pa.nnz_ptr[static_cast<std::size_t>(s) + 1]);
    EXPECT_EQ(strip_pairs, (std::vector<std::int32_t>{0, 2}))
        << "pair 1 is all-zero in strip " << s;
  }
  const auto pb = gemm::pack_int8_b(codes.data(), rows, depth);
  EXPECT_EQ(pb.kpairs, 3);
  for (Index t = 0; t < rows; ++t) {
    for (Index p = 0; p < kpairs; ++p) {
      for (Index u = 0; u < 2; ++u) {
        const Index k = 2 * p + u;
        const std::int8_t want = k < depth ? codes[t * depth + k] : 0;
        EXPECT_EQ(pb.data[((0 * kpairs + p) * 16 + t) * 2 + u], want);
      }
    }
  }
}

TEST(Int8KernelOracle, QuantI8BitIdenticalIncludingHalfwayTies) {
  // 4-bit 1-int-bit activation grid: step 2⁻³, values clamp to [-1, 0.875].
  const float inv_step = 8.0f, lo = -1.0f, hi = 0.875f;
  for (kernels::Isa isa : supported_simd_isas()) {
    for (Index n : kElemSizes) {
      con::util::Rng rng(9600 + static_cast<std::uint64_t>(n));
      std::vector<float> src(static_cast<std::size_t>(n));
      for (Index i = 0; i < n; ++i) {
        const double u = rng.uniform();
        if (u < 0.3) {
          // Exact halfway point between two codes: round-half-even makes
          // (k + 0.5)/8 round down for even k and up for odd k — any ISA
          // that rounds half-away diverges here.
          const int k = static_cast<int>(rng.uniform() * 14.0) - 7;
          src[static_cast<std::size_t>(i)] =
              (static_cast<float>(k) + 0.5f) / 8.0f;
        } else if (u < 0.4) {
          src[static_cast<std::size_t>(i)] = rng.uniform_f(-4.0f, 4.0f);  // clamps
        } else {
          src[static_cast<std::size_t>(i)] = rng.uniform_f(-1.2f, 1.2f);
        }
      }
      std::vector<std::int8_t> want(static_cast<std::size_t>(n), 99);
      std::vector<std::int8_t> got = want;
      kernels::scalar::quant_i8(want.data(), src.data(), inv_step, lo, hi, n);
      kernels::ScopedIsa scoped(isa);
      kernels::active().quant_i8(got.data(), src.data(), inv_step, lo, hi, n);
      ASSERT_EQ(want, got) << kernels::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(Int8KernelOracle, RequantBitIdenticalIncludingShiftZeroAndTies) {
  const Index rows = 5, cols = 17;  // off the 8/16 vector widths
  con::util::Rng rng(9700);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * cols));
  for (Index i = 0; i < rows * cols; ++i) {
    const double u = rng.uniform();
    if (u < 0.3) {
      // Exact tie at the shift-4 rounding point: v = 16q + 8 with q of
      // either parity (round-half-even keeps even q, bumps odd q).
      const int q = static_cast<int>(rng.uniform() * 40.0) - 20;
      acc[static_cast<std::size_t>(i)] = q * 16 + 8;
    } else if (u < 0.4) {
      acc[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(rng.uniform() * 2e6) - 1000000;  // saturates
    } else {
      acc[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(rng.uniform() * 4000.0) - 2000;
    }
  }
  std::vector<std::int32_t> cbias(static_cast<std::size_t>(cols));
  std::vector<std::int32_t> rbias(static_cast<std::size_t>(rows));
  for (auto& b : cbias) b = static_cast<std::int32_t>(rng.uniform() * 64) - 32;
  for (auto& b : rbias) b = static_cast<std::int32_t>(rng.uniform() * 64) - 32;
  const std::int32_t lo = -128, hi = 127;
  const float scale = 0.0078125f;  // 2⁻⁷, exact
  for (kernels::Isa isa : supported_simd_isas()) {
    for (int shift : {0, 4, 7}) {
      std::vector<float> want(static_cast<std::size_t>(rows * cols));
      std::vector<float> got = want;
      kernels::scalar::requant_col_bias(want.data(), acc.data(), cbias.data(),
                                        shift, lo, hi, scale, rows, cols);
      {
        kernels::ScopedIsa scoped(isa);
        kernels::active().requant_col_bias(got.data(), acc.data(),
                                           cbias.data(), shift, lo, hi, scale,
                                           rows, cols);
      }
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << kernels::isa_name(isa) << " col_bias shift=" << shift;
      kernels::scalar::requant_row_bias(want.data(), acc.data(), rbias.data(),
                                        shift, lo, hi, scale, rows, cols);
      {
        kernels::ScopedIsa scoped(isa);
        kernels::active().requant_row_bias(got.data(), acc.data(),
                                           rbias.data(), shift, lo, hi, scale,
                                           rows, cols);
      }
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0)
          << kernels::isa_name(isa) << " row_bias shift=" << shift;
    }
  }
}

TEST(Int8KernelOracle, RequantRoundsHalfToEvenAndSaturates) {
  // Direct semantics of the scalar oracle (DESIGN.md §5 integer contract):
  // ties go to the even quotient, saturation clamps to the code range.
  const std::int32_t acc[] = {8, 24, -8, -24, 1 << 20, -(1 << 20)};
  const std::int32_t bias[] = {0, 0, 0, 0, 0, 0};
  float y[6];
  kernels::scalar::requant_col_bias(y, acc, bias, /*shift=*/4, -128, 127,
                                    1.0f, 1, 6);
  EXPECT_EQ(y[0], 0.0f);    // 8/16 = 0.5 → 0 (even)
  EXPECT_EQ(y[1], 2.0f);    // 24/16 = 1.5 → 2 (even)
  EXPECT_EQ(y[2], 0.0f);    // -0.5 → 0
  EXPECT_EQ(y[3], -2.0f);   // -1.5 → -2
  EXPECT_EQ(y[4], 127.0f);  // saturate high
  EXPECT_EQ(y[5], -128.0f); // saturate low
  // shift == 0 bypasses the rounding formula entirely (1 << -1 is UB).
  kernels::scalar::requant_col_bias(y, acc, bias, /*shift=*/0, -128, 127,
                                    1.0f, 1, 6);
  EXPECT_EQ(y[0], 8.0f);
  EXPECT_EQ(y[4], 127.0f);
}

// ---- allocation regression (the dynamic side of the hotpath lint) ----------

TEST(KernelRegression, BlockedGemmAllocatesOnlyTheOutput) {
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  for (kernels::Isa isa : supported_simd_isas()) isas.push_back(isa);
  const Tensor a = make_input(32, 64, 71, Fill::kRandom);
  const Tensor b = make_input(64, 300, 72, Fill::kRandom);
  const auto pa = gemm::pack_rowmajor(a, gemm::kStripA);
  for (kernels::Isa isa : isas) {
    kernels::ScopedIsa scoped(isa);
    (void)gemm::matmul_nn(pa, b);  // warm up dispatch + thread scratch
    const std::uint64_t before = Tensor::buffer_allocations();
    constexpr int kIters = 4;
    for (int i = 0; i < kIters; ++i) {
      (void)gemm::matmul_nn(pa, b);
    }
    EXPECT_EQ(Tensor::buffer_allocations() - before,
              static_cast<std::uint64_t>(kIters))
        << "dispatch path allocated tensor buffers beyond the output on "
        << kernels::isa_name(isa);
  }
}

}  // namespace
