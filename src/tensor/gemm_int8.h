// Blocked int8 GEMM with int32 accumulators — the deployed-integer
// inference substrate.
//
// The fake-quantisation study path (compress/fixed_point.h) snaps weights
// and activations to a fixed-point grid but still multiplies floats. This
// layer runs the *integer* model the paper's deployment story implies:
// operands are int8 codes, products accumulate in int32, and the result is
// requantised back onto the activation grid with a round-half-even shift —
// bit-identical to the compress::integer_exec int64 oracle whenever the
// int32 accumulator cannot overflow (callers validate K·2¹⁴ + |bias| < 2³¹
// at lowering time, nn/packed_weights.cpp).
//
// Layout: codes are packed pair-of-k interleaved so the SIMD kernels read
// one k-pair per fused multiply-add (AVX2 vpmaddwd):
//  - Left operand (PackedInt8A): MR = 4 row strips, codes widened to int16
//    so one row's k-pair is a single 32-bit broadcast:
//      data[((s·kpairs + p)·4 + i)·2 + u] = code(row s·4+i, k 2p+u)
//  - Right operand (PackedInt8B): NR = 16 row strips, codes stay int8 — a
//    (strip, pair) block is 32 contiguous bytes, one vector load:
//      data[((s·kpairs + p)·16 + t)·2 + u] = code(row s·16+t, k 2p+u)
// Odd depth pads the final pair's u = 1 lane with code 0, which contributes
// exactly nothing to an integer accumulator.
//
// Zero-skip works at pair granularity: packing records, per strip, the
// ascending list of pairs with any non-zero lane, and the micro-kernel
// iterates the shorter of the two operands' lists — every elided pair is
// all-zero on one side, so pruned-and-quantised models (src/sparse/) keep
// their skip behaviour on the integer path. There is no int8 analogue of
// the float sparse row-axpy: the pair lists already elide pruned work, and
// the int8 tile is cheap enough that a separate sweep kernel never wins.
//
// Threading mirrors tensor/gemm.cpp: kNC-column panels of C via
// util::parallel_for, each element computed by exactly one task, so results
// are independent of --threads. Integer arithmetic makes every ISA
// bit-identical to the scalar oracle, so results never depend on the
// kernel table either.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace con::tensor::gemm {

// Register-tile strip widths of the int8 kernel (dispatch.h int8_4x16).
inline constexpr Index kStripAInt8 = 4;
inline constexpr Index kStripBInt8 = 16;

// Left operand: int8-range codes widened to int16, pair-interleaved.
struct PackedInt8A {
  Index rows = 0;
  Index depth = 0;   // K in codes; odd K zero-pads the final pair
  Index kpairs = 0;  // (depth + 1) / 2
  std::vector<std::int16_t> data;
  // Pair skip lists: ascending p with any non-zero lane, per strip:
  // nnz_p[nnz_ptr[s] .. nnz_ptr[s+1]).
  std::vector<std::int32_t> nnz_p;
  std::vector<std::int64_t> nnz_ptr;

  Index num_strips() const {
    return rows == 0 ? 0 : (rows + kStripAInt8 - 1) / kStripAInt8;
  }
};

// Right operand: int8 codes, pair-interleaved.
struct PackedInt8B {
  Index rows = 0;
  Index depth = 0;
  Index kpairs = 0;
  std::vector<std::int8_t> data;
  std::vector<std::int32_t> nnz_p;
  std::vector<std::int64_t> nnz_ptr;

  Index num_strips() const {
    return rows == 0 ? 0 : (rows + kStripBInt8 - 1) / kStripBInt8;
  }
};

// Pack a row-major [rows, depth] code matrix (codes[r*depth + k]).
[[nodiscard]] PackedInt8A pack_int8_a(const std::int8_t* codes, Index rows,
                                      Index depth);
[[nodiscard]] PackedInt8B pack_int8_b(const std::int8_t* codes, Index rows,
                                      Index depth);

// The right operand of an int8 product: a pre-packed matrix (cached weight
// panels) or raw k-major code storage (raw[k*ld + j] = code(col j, k), the
// im2col layout) packed panel-by-panel inside each task.
struct Int8BSource {
  const PackedInt8B* packed = nullptr;
  const std::int8_t* raw = nullptr;
  Index ld = 0;
};

// C[i,j] (int32) = Σ_k codeA(i,k) · codeB(j,k) for j < n. Covers both
// deployed orientations: Linear (A = activation codes, B = cached weight
// panels, C = [batch, out]) and Conv (A = cached weight panels, B = raw
// k-major im2col codes, C = [out_channels, batch·out_plane]). The caller
// guarantees the int32 accumulator cannot overflow (|code| ≤ 2⁷ ⇒
// |C| ≤ depth·2¹⁴; bias headroom is validated at lowering).
void matmul_int8(const PackedInt8A& a, const Int8BSource& b, Index n,
                 std::int32_t* c);

// Float → int8 codes through the kernel table's quant_i8 entry:
// dst[i] = nearbyint(clamp(src[i], lo, hi) · inv_step), round-half-even.
// Bit-identical to compress::integer_exec::quantize_to_code for finite
// inputs on every ISA. Counter: requantize.quant_i8.
void quantize_codes(std::int8_t* dst, const float* src, float inv_step,
                    float lo, float hi, Index n);

// int32 accumulators → float values on the activation grid:
// y = sat(rshift_rne(acc + bias, shift), lo, hi) · scale, parallel over
// rows. Column-bias indexing (bias[j], the Linear [batch, out] layout) or
// row-bias indexing (bias[r], the Conv [outC, batch·plane] layout).
// Counters: requantize.col_bias / requantize.row_bias.
void requantize_col_bias(float* y, const std::int32_t* acc,
                         const std::int32_t* bias, int shift, std::int32_t lo,
                         std::int32_t hi, float scale, Index rows, Index cols);
void requantize_row_bias(float* y, const std::int32_t* acc,
                         const std::int32_t* bias, int shift, std::int32_t lo,
                         std::int32_t hi, float scale, Index rows, Index cols);

// im2col over int8 codes: lowers an [N, C, H, W] code batch into the
// [C·kh·kw, N·oh·ow] k-major patch matrix matmul_int8 consumes as a raw
// Int8BSource, sample i at columns [i·oh·ow, (i+1)·oh·ow). Padding emits
// code 0 — exactly what quantising the float path's zero padding yields.
// `cols` must hold (C·kh·kw)·(N·oh·ow) bytes. Counter: im2col.int8.bytes.
void im2col_int8_batch(const std::int8_t* batch, Index n,
                       const Conv2dGeometry& g, std::int8_t* cols);

}  // namespace con::tensor::gemm
