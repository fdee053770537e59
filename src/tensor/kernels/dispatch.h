// Runtime-dispatched SIMD micro-kernel table for the GEMM / sparse /
// elementwise / fixed-point hot paths.
//
// The blocked GEMM layer (tensor/gemm.cpp) and the elementwise ops
// (tensor/ops.cpp) call through one process-wide `KernelTable` of plain
// function pointers. The table is resolved exactly once, at first use: a
// cpuid probe picks the best implementation the host supports (AVX2+FMA on
// x86-64, else scalar). The AVX2 table lives in its own translation unit
// (kernel_avx2.cpp) compiled with per-TU ISA flags, so the default build
// still runs on any host: the vector code is only *called* after the probe
// says the instructions exist.
//
// Precision contract (DESIGN.md §5, "SIMD precision contract"): every
// table entry is bit-identical to the scalar table, so the table a host
// picks never changes a result or an artifact-store address.
//  - `scalar` is the reference: its entries are the exact loops the
//    pre-dispatch code ran, and the fallback on hosts without AVX2+FMA.
//  - The float register tile (`nn_4x8`) keeps one accumulator chain per
//    output element, k ascending, with separate multiply and add. The
//    double-accumulating NT tile (`nt_4x8`) is exact per product (float
//    products are exact in double, so fused and unfused rounding agree)
//    and has no skip lists: it adds every term, as reference_nt does. Its
//    packers (`nt_pack_a`, `nt_pack_b`) only convert float to double,
//    which is exact. The sparse row-axpy and the elementwise entries are
//    vectorized with separate multiply and add — never contracted.
//  - `fake_quant` (the fixed-point snap of QAT activations, weights and
//    the int8 pass's requantising gates) multiplies by a power-of-two
//    inverse step, rounds half-even with round instructions (never a
//    float→int conversion, which is wrong once |x·2^f| ≥ 2³¹) and clamps
//    with the bound as the first min/max operand, so NaN passes through
//    as the scalar `if` chain lets it.
//  - The int8 entries (`int8_4x16`, `quant_i8`, `requant_*`) are integer
//    arithmetic end to end (DESIGN.md §5, "Integer precision contract").
//    The only float steps are exact: power-of-two scaling and int→float
//    conversion of values ≤ 2⁷.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace con::tensor::kernels {

enum class Isa : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumIsas = 2;

// Float register-tile GEMM micro-kernel: one MR×NR accumulator tile over
// packed strips (ap[k*MR + i], bp[k*NR + j]), full depth per output element
// in ascending k. `klist == nullptr` runs the dense loop; otherwise only the
// listed k are visited (every elided term has a zero factor — see gemm.h).
// Writes the mv×nv valid corner of the tile to c (leading dimension ldc).
using MicroKernelFn = void (*)(Index depth, const float* ap, const float* bp,
                               const std::int32_t* klist, Index nk, float* c,
                               Index ldc, Index mv, Index nv);

// NT register tile: up to a 4×8 block of C accumulated in double, one
// chain per output element. `ap` is a k-major strip of 4 A rows
// (ap[k*4 + i]), `bp` points at nv ≤ 8 B rows (bp[j*ldb + k]), both
// already converted to double. `acc` holds the tile column by column
// (acc[j*4 + i], j < nv); the kernel loads it, adds a[i]·b[j] for
// k = 0 … kn-1 in ascending order, and stores it back, so a caller can run
// one chain across several K blocks.
using NtTileFn = void (*)(Index kn, const double* ap, const double* bp,
                          Index ldb, double* acc, Index nv);
// Builds the NT tile's A strip: rows i < mv of a row-major float block
// (a[i*lda + k], k < kc) transposed to k-major doubles dst[k*4 + i], rows
// mv..3 zero. float→double is exact, so every ISA writes the same bytes.
using NtPackAFn = void (*)(const float* a, Index lda, Index mv, Index kc,
                           double* dst);
// Builds the NT tile's B rows: rows j < nv of a row-major float block
// (b[j*ldb + k], k < kc) converted to doubles dst[j*kc + k]. Exact, so
// every ISA writes the same bytes.
using NtPackBFn = void (*)(const float* b, Index ldb, Index nv, Index kc,
                           double* dst);

// dst[i] += a * src[i]  (the sparse row-axpy inner sweep and attack-step
// updates; never FMA-contracted, bit-identical on every ISA).
using AxpyFn = void (*)(float* dst, const float* src, float a, Index n);
// dst[i] = a[i] + s * b[i]
using AxpyOutFn = void (*)(float* dst, const float* a, const float* b, float s,
                           Index n);
// dst[i] (+|-|*)= src[i]
using BinFn = void (*)(float* dst, const float* src, Index n);
// dst[i] *= s
using ScaleFn = void (*)(float* dst, float s, Index n);
// dst[i] = min(hi, max(lo, dst[i])) with std::min/std::max tie semantics
using ClampFn = void (*)(float* dst, float lo, float hi, Index n);
// dst[i] = src[i] > 0 ? src[i] : 0   /   dst[i] = sign(src[i]) ∈ {-1,0,1}
using UnaryFn = void (*)(float* dst, const float* src, Index n);
// grad[i] = input[i] <= 0 ? 0 : grad[i]
using ReluBwdFn = void (*)(float* grad, const float* input, Index n);
// Int8 register-tile GEMM micro-kernel with int32 accumulators: one 4×16
// tile over pair-of-k interleaved panels (tensor/gemm_int8.h). The left
// operand stores int8-range codes widened to int16 so a k-pair of one row
// is a single 32-bit broadcast: ap[(p*4 + i)*2 + u] = code(row i, k 2p+u).
// The right operand stays int8: bp[(p*16 + t)*2 + u] = code(col t, k 2p+u).
// `klist == nullptr` runs the dense loop over all `kpairs`; otherwise only
// the listed pairs are visited (every elided pair is all-zero — see
// gemm_int8.h). Writes the mv×nv valid corner of the int32 tile to c.
// Codes are int8-range, so |acc| ≤ K·2¹⁴ — callers must bound K (and the
// bias folded in afterwards) so the int32 accumulator cannot overflow.
using Int8MicroKernelFn = void (*)(Index kpairs, const std::int16_t* ap,
                                   const std::int8_t* bp,
                                   const std::int32_t* klist, Index nk,
                                   std::int32_t* c, Index ldc, Index mv,
                                   Index nv);

// Quantise float values to int8 fixed-point codes:
// dst[i] = nearbyint(clamp(src[i], lo, hi) * inv_step) with round-half-even
// (the default FP environment). `lo`/`hi` are the format's representable
// value bounds (lo_code·step / hi_code·step — exactly representable), and
// inv_step is a power of two, so the product is exact and every ISA rounds
// the same real number: bit-identical to compress::integer_exec's
// quantize_to_code for finite inputs.
using QuantI8Fn = void (*)(std::int8_t* dst, const float* src, float inv_step,
                           float lo, float hi, Index n);

// Fixed-point fake-quantisation with its straight-through gate:
//   q = nearbyint(in[i] * inv_step) * step   (round-half-even)
//   out[i] = q clamped to [lo, hi] by `if (q < lo) q = lo; if (q > hi)
//            q = hi;` — a NaN q passes through unchanged
//   gate[i] = (q < lo || q > hi) ? 0 : 1     (NaN counts as in range)
// `step` must be a power of two and `inv_step` exactly 1/step: then
// in[i] * inv_step and in[i] / step round the same real number to the same
// float, so this is bit-identical to `nearbyint(x / step) * step` with the
// same saturation, on every input (±0, ±inf, NaN payloads, |x·2^f| ≥ 2³¹).
// `out` may alias `in`; `gate` may not alias either.
using FakeQuantFn = void (*)(float* out, float* gate, const float* in,
                             float inv_step, float step, float lo, float hi,
                             Index n);

// Requantise an int32 accumulator matrix [rows, cols] to float values on
// the activation grid: y = sat(rshift_rne(acc + bias, shift), lo, hi) *
// scale, where rshift_rne is the round-half-even arithmetic right shift of
// compress::integer_exec and `scale` is the activation step (power of two,
// so the final int→float multiply is exact). The two entries differ only in
// bias indexing: per-column (Linear layout, acc [N, out]) or per-row (Conv
// layout, acc [outC, N·P]).
using RequantFn = void (*)(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols);

// Scatters one k-row of a right-operand panel into its 8-wide strip
// columns: strip s receives src[s*8 + t] in lane t of column k (panel
// layout (s*depth + k)*8 + t, gemm.h), and flags[s*depth + k] records
// whether any copied lane is nonzero (NaN counts as nonzero, matching the
// scalar `!= 0.0f` test). A pure byte shuffle — bit-identical everywhere;
// only the copy/test width is per-ISA.
using PackRowFn = void (*)(float* panel, const float* src, Index jn,
                           Index depth, Index k, char* flags);

struct KernelTable {
  Isa isa = Isa::kScalar;
  // Below this M·N·K product matmul falls back to the pre-blocking scalar
  // loops (pack/dispatch overhead dominates). Per-ISA: a faster micro-kernel
  // amortises packing earlier, so the crossover drops (gemm.cpp).
  Index small_gemm_flops = 0;
  MicroKernelFn nn_4x8 = nullptr;  // float accumulators, MR = gemm::kStripA
  NtTileFn nt_4x8 = nullptr;       // double accumulators, no zero-skip
  NtPackAFn nt_pack_a = nullptr;  // NT A strip: transpose to double
  NtPackBFn nt_pack_b = nullptr;  // NT B rows: convert to double
  AxpyFn axpy = nullptr;
  AxpyOutFn axpy_out = nullptr;
  BinFn add = nullptr;
  BinFn sub = nullptr;
  BinFn mul = nullptr;
  ScaleFn scale = nullptr;
  ClampFn clamp = nullptr;
  UnaryFn relu = nullptr;
  UnaryFn sign = nullptr;
  ReluBwdFn relu_bwd = nullptr;
  FakeQuantFn fake_quant = nullptr;
  PackRowFn pack_row = nullptr;
  // Deployed-integer inference entries (bit-identical on every ISA).
  Int8MicroKernelFn int8_4x16 = nullptr;
  QuantI8Fn quant_i8 = nullptr;
  RequantFn requant_col_bias = nullptr;
  RequantFn requant_row_bias = nullptr;
};

// The active table. First call activates the best ISA the host supports;
// the lookup afterwards is one atomic load (safe inside hot loops — never
// allocates).
const KernelTable& active();
Isa active_isa();
const char* isa_name(Isa isa);

// True when `isa` is compiled into this binary AND the host executes it.
bool isa_supported(Isa isa);

// Forces the table (tests and micro-benchmarks). Returns the ISA actually
// activated: `isa` when supported, otherwise scalar (with a warning). Not
// thread-safe against concurrent kernel calls — call at startup or in tests.
Isa set_isa(Isa isa);

// RAII forced-ISA scope for tests and micro-benchmarks; restores on
// destruction.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) : prev_(active_isa()) { set_isa(isa); }
  ~ScopedIsa() { set_isa(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa prev_;
};

}  // namespace con::tensor::kernels
