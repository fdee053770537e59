// Tensor operators used by the NN framework, attacks and analysis code.
//
// All operators are free functions over `Tensor` values; in-place variants
// take the destination first. Shapes are validated and mismatches throw,
// so layer-plumbing bugs surface at the call site.
#pragma once

#include <functional>

#include "tensor/tensor.h"

namespace con::tensor {

// ---- parallel stages -------------------------------------------------------
// The two splits the per-sample and elementwise stages of the conv/pool
// stack run through util::parallel_for. Both depend on the sizes alone,
// never on the thread count, and a body writes only what its index owns,
// so every such stage is byte-identical for any --threads (DESIGN.md §5).

// Elements per piece of an elementwise stage (ReLU, fake-quantisation).
inline constexpr Index kElementwiseChunk = Index{1} << 14;

// fn(i) for every sample i in [0, n).
void parallel_for_samples(Index n, const std::function<void(Index)>& fn);
// fn(lo, hi) for every kElementwiseChunk piece [lo, hi) of [0, n); a
// range of at most one piece runs inline.
void parallel_for_chunks(Index n,
                         const std::function<void(Index, Index)>& fn);

// ---- elementwise ----------------------------------------------------------
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor sub(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);  // Hadamard product
[[nodiscard]] Tensor scale(const Tensor& a, float s);
[[nodiscard]] Tensor add_scaled(const Tensor& a, const Tensor& b, float s);  // a + s*b

void add_inplace(Tensor& dst, const Tensor& src);
void sub_inplace(Tensor& dst, const Tensor& src);
void mul_inplace(Tensor& dst, const Tensor& src);
void scale_inplace(Tensor& dst, float s);
void add_scaled_inplace(Tensor& dst, const Tensor& src, float s);

// dst = a + s*b, reusing dst's storage when its capacity allows. dst must
// not alias a or b. Element expression matches add_scaled(a, b, s) exactly,
// so iterative loops can swap in the fused form without changing a bit.
void add_scaled_into(Tensor& dst, const Tensor& a, const Tensor& b, float s);

// Elementwise sign(): -1, 0 or +1.
[[nodiscard]] Tensor sign(const Tensor& a);
// Elementwise clamp to [lo, hi].
[[nodiscard]] Tensor clamp(const Tensor& a, float lo, float hi);
void clamp_inplace(Tensor& a, float lo, float hi);

// Elementwise max(a, 0); relu(-0) == +0 on every kernel ISA. relu and
// relu_backward_inplace run over parallel_for_chunks.
[[nodiscard]] Tensor relu(const Tensor& a);
void relu_inplace(Tensor& a);
// grad[i] = 0 wherever input[i] <= 0 (the ReLU adjoint).
void relu_backward_inplace(Tensor& grad, const Tensor& input);
// m[i,j] += bias[j] for a rank-2 m (layer bias broadcast over rows).
void bias_add_inplace(Tensor& m, const Tensor& bias);
// acc[j] += sum_i m[i,j], accumulating row-at-a-time in ascending row
// order (the bias-gradient reduction).
void column_sums_add_inplace(Tensor& acc, const Tensor& m);

// ---- reductions -----------------------------------------------------------
[[nodiscard]] float sum(const Tensor& a);
[[nodiscard]] float mean(const Tensor& a);
[[nodiscard]] float min_value(const Tensor& a);
[[nodiscard]] float max_value(const Tensor& a);
[[nodiscard]] float l2_norm(const Tensor& a);
[[nodiscard]] float linf_norm(const Tensor& a);
// Fraction of exactly-zero elements (used for sparsity accounting).
[[nodiscard]] double zero_fraction(const Tensor& a);

// Index of the maximum element of a rank-1 tensor or of row `row` of a
// rank-2 tensor.
[[nodiscard]] Index argmax(const Tensor& a);
[[nodiscard]] Index argmax_row(const Tensor& a, Index row);

// ---- linear algebra -------------------------------------------------------
// C[M,N] = A[M,K] * B[K,N].
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);
// C[M,N] = A[K,M]^T * B[K,N].
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
// C[M,N] = A[M,K] * B[N,K]^T.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);
// Rank-2 transpose.
[[nodiscard]] Tensor transpose(const Tensor& a);

// ---- convolution support ---------------------------------------------------
// im2col for NCHW tensors: input [N,C,H,W] -> columns
// [N, C*kh*kw, out_h*out_w], standard stride/padding semantics.
struct Conv2dGeometry {
  Index in_channels = 0;
  Index in_h = 0;
  Index in_w = 0;
  Index kernel_h = 0;
  Index kernel_w = 0;
  Index stride = 1;
  Index padding = 0;
  // Output positions per axis; 0 when the padded input is smaller than
  // the kernel, where (x - k) / s + 1 would truncate toward zero to 1.
  Index out_h() const { return out_extent(in_h, kernel_h); }
  Index out_w() const { return out_extent(in_w, kernel_w); }
  Index out_extent(Index in, Index kernel) const {
    const Index span = in + 2 * padding - kernel;
    return span < 0 ? 0 : span / stride + 1;
  }
};

// Extract patches of a single image [C,H,W] into [C*kh*kw, out_h*out_w].
[[nodiscard]] Tensor im2col(const Tensor& image, const Conv2dGeometry& g);
// Scatter-add the column gradient back into an image gradient [C,H,W].
[[nodiscard]] Tensor col2im(const Tensor& columns, const Conv2dGeometry& g);

// Batched variants: the whole batch becomes ONE column matrix so a conv
// layer is a single GEMM instead of N small ones. Sample i occupies the
// contiguous column block [i*out_h*out_w, (i+1)*out_h*out_w); within a
// block the layout matches im2col, so per-column results are bit-identical
// to the per-sample path. Both run over parallel_for_samples.
// [N,C,H,W] -> [C*kh*kw, N*out_h*out_w].
[[nodiscard]] Tensor im2col_batch(const Tensor& batch, const Conv2dGeometry& g);
// The same into `cols`, whose storage is reused as is when it already has
// the output shape (Tensor::ensure_shape): a layer that lowers same-shaped
// batches call after call neither reallocates nor zero-fills it.
void im2col_batch_into(const Tensor& batch, const Conv2dGeometry& g,
                       Tensor& cols);
// [C*kh*kw, N*out_h*out_w] -> [N,C,H,W] (scatter-add).
[[nodiscard]] Tensor col2im_batch(const Tensor& columns, Index batch_size,
                    const Conv2dGeometry& g);

// ---- batched slicing -------------------------------------------------------
// Extract sample `n` of a batch tensor [N, ...] as a tensor of shape [...].
[[nodiscard]] Tensor slice_batch(const Tensor& batch, Index n);
// Write `sample` into position `n` of `batch`.
void set_batch(Tensor& batch, Index n, const Tensor& sample);
// Stack K same-shape tensors into [K, ...].
[[nodiscard]] Tensor stack(const std::vector<Tensor>& samples);

// ---- batch gather / scatter / compaction -----------------------------------
// Row-range and index-set operations over the leading (batch) dimension.
// These are the primitives behind the active-set attack loops and the
// view-based attack chunking: chunks read their input rows and write their
// result rows directly, with no intermediate chunk tensors.

// Copy rows [lo, hi) of `batch` into a fresh [hi-lo, ...] tensor.
[[nodiscard]] Tensor copy_rows(const Tensor& batch, Index lo, Index hi);
// Write `src` ([M, ...], same trailing dims as `batch`) into rows
// [lo, lo+M) of `batch`.
void write_rows(Tensor& batch, Index lo, const Tensor& src);
// Gather `batch` row rows[j] into row j of a fresh [rows.size(), ...]
// tensor. Indices may repeat and appear in any order.
[[nodiscard]] Tensor gather_rows(const Tensor& batch, const std::vector<Index>& rows);
// Stable in-place compaction: `batch` row keep[j] moves to row j and the
// batch dimension shrinks to keep.size(). `keep` must be strictly
// ascending. Storage is retained, so a live set can shrink to nothing
// without a single reallocation.
void compact_rows_inplace(Tensor& batch, const std::vector<Index>& keep);

}  // namespace con::tensor
