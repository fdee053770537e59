// Blocked, packed, multi-threaded GEMM kernels.
//
// Every iterative attack in the study funnels through three matrix
// products (forward NN/NT, backward TN/NT), so their per-call constant is
// the whole reproduction's wall clock. This layer replaces the scalar
// i-k-j loops in ops.cpp with cache-blocked kernels while keeping results
// byte-identical to them (and therefore identical for any --threads N):
//
//  - NN/TN: operands are packed into register-tile strips: the
//    register-tiled dimension is split into strips of kStripA (left
//    operand, 4 rows) or kStripB (right operand, 8 rows), stored
//    strip-major as data[(s*depth + k)*strip + t] with zero padding past
//    the edge, so the micro-kernel reads both operands at unit stride.
//    The micro-kernel holds a 4×8 float accumulator tile in registers and
//    runs the full depth (k) range per output element: one accumulator per
//    element, k ascending — the exact operation sequence of the scalar
//    loops, hence bit-identical output.
//  - NN/TN packing records, per strip, the ascending list of k indices
//    whose strip column contains any non-zero. The micro-kernel iterates
//    the shorter of the two operands' lists; skipped terms have a zero
//    factor and contribute ±0.0f, which never changes a finite
//    accumulation, so the zero-skip of the scalar loops (pruned weight
//    panels) is preserved bit-for-bit. NN/TN assume finite inputs.
//  - A left operand below ~25% density (a DNS-pruned layer) switches to
//    per-row axpy sweeps over its skip lists — the scalar loops' own
//    strategy, which beats register tiles when most tile rows are zero —
//    parallelized over C rows. Same bits on every path.
//  - NT accumulates in double and skips nothing. It runs in K blocks of
//    kNtKc: per block, A's rows are transposed into k-major double strips
//    of 4 rows and B's rows are converted to doubles (a PackedNt right
//    operand already is), then a 4×8 double tile advances each output
//    element's single chain over the block, k ascending. The chains
//    persist across blocks and are rounded to float once. A float·float
//    product is exact in double, so this is reference_nt's sum term for
//    term, for any input — non-finite ones included.
//  - Work is threaded via util::parallel_for: NN/TN over kNC-column panels
//    of C, NT over kStripB-column strips of C (a claim takes a run of
//    neighbouring strips and converts each A block once for the run; a
//    product too small to pay for a pool wake-up is one inline claim).
//    Tasks write disjoint columns and every element is computed by exactly
//    one task, so results do not depend on the thread count.
//
// `PackedMatrix` and `PackedNt` are exposed so weight panels can be packed
// once and reused across the thousands of forward/backward calls an attack
// makes against frozen weights (see nn/packed_weights.h) and so the sparse
// CSR path can feed pruned matrices straight into the same kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace con::tensor::gemm {

// Register-tile strip widths: kStripA rows of the left (M) operand and
// kStripB rows of the right (N) operand, for the float and the NT tile
// alike.
inline constexpr Index kStripA = 4;
inline constexpr Index kStripB = 8;
// Columns of C per NN/TN cache panel and per parallel task. A multiple of
// kStripB so strips never straddle panels.
inline constexpr Index kNC = 256;
// K per NT block: a 4-row A strip of it is 8 KiB of doubles and an 8-row B
// strip 16 KiB, so both stay in L1 while the tile sweeps them.
inline constexpr Index kNtKc = 256;

// One GEMM operand packed into register-tile strips. `rows` is the
// register-tiled dimension (M for a left operand, N for a right operand),
// `depth` the shared accumulation dimension K.
struct PackedMatrix {
  Index rows = 0;
  Index depth = 0;
  Index strip = 0;  // rows per strip; the last strip is zero-padded
  // Strip-major storage: data[(s*depth + k)*strip + t] = M[s*strip + t][k]
  // for t < min(strip, rows - s*strip), zero beyond the edge.
  std::vector<float> data;
  // Zero-skip index: ascending k with at least one non-zero lane, per
  // strip: nnz_k[nnz_ptr[s] .. nnz_ptr[s+1]).
  std::vector<std::int32_t> nnz_k;
  std::vector<std::int64_t> nnz_ptr;
  // Non-zero element count. Heavily pruned left operands (≲25% density)
  // switch from register tiles to per-row axpy sweeps over the skip lists,
  // which is how the scalar loops exploited pruning; same bits either way.
  Index nnz = 0;

  Index num_strips() const {
    return rows == 0 ? 0 : (rows + strip - 1) / strip;
  }
};

// The right operand of an NT product, B[N,K], converted once to what the
// NT tile reads: B's rows as doubles, row-major. The Linear cache holds W
// this way, so a forward call converts nothing.
struct PackedNt {
  Index rows = 0;   // N
  Index depth = 0;  // K
  std::vector<double> data;  // data[j*depth + k] = B[j][k]
};

// Pack a logical [rows, depth] operand stored row-major (m.dim(0) = rows).
[[nodiscard]] PackedMatrix pack_rowmajor(const Tensor& m, Index strip);
// Pack a logical [rows, depth] operand stored as its transpose
// (m.dim(0) = depth, m.dim(1) = rows).
[[nodiscard]] PackedMatrix pack_colmajor(const Tensor& m, Index strip);
// Convert a row-major B[N,K] (b.dim(0) = N) into the NT tile's layout.
[[nodiscard]] PackedNt pack_nt(const Tensor& b);

// C[M,N] = A[M,K] · B[K,N]. Packed forms: A = pack_rowmajor(a, kStripA),
// B = pack_colmajor(b, kStripB). Float accumulators.
[[nodiscard]] Tensor matmul_nn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nn(const PackedMatrix& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nn(const Tensor& a, const PackedMatrix& b);

// C[M,N] = A[K,M]ᵀ · B[K,N]. Packed A = pack_colmajor(a, kStripA).
// Float accumulators.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_tn(const PackedMatrix& a, const Tensor& b);
// The same into `c`, whose storage is reused as is when it already has the
// output shape (Tensor::ensure_shape): every element is overwritten.
void matmul_tn_into(const PackedMatrix& a, const Tensor& b, Tensor& c);

// C[M,N] = A[M,K] · B[N,K]ᵀ. Packed B = pack_nt(b). Double accumulators
// (dot-product-shaped reduction; DESIGN.md §5), no zero-skip.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const PackedNt& b);

// The pre-blocking scalar loops, kept as the correctness oracle for
// tests/test_gemm.cpp and the before/after baseline in bench_micro_ops.
// The blocked kernels above reproduce their output bit-for-bit.
[[nodiscard]] Tensor reference_nn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor reference_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor reference_nt(const Tensor& a, const Tensor& b);

}  // namespace con::tensor::gemm
