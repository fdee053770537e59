#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/kernels/dispatch.h"
#include "util/threadpool.h"

namespace con::tensor {

namespace {

// Bytes materialised into im2col scratch buffers — the dominant transient
// memory cost of convolution, surfaced in run manifests.
void count_im2col_bytes(Index elements) {
  static obs::Counter& bytes = obs::counter("im2col.bytes");
  bytes.add(static_cast<std::uint64_t>(elements) * sizeof(float));
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape().to_string() + " vs " +
                                b.shape().to_string());
  }
}

void check_rank2(const Tensor& a, const char* op) {
  if (a.rank() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank-2, got " +
                                a.shape().to_string());
  }
}

}  // namespace

// ---- parallel stages -------------------------------------------------------

void parallel_for_samples(Index n, const std::function<void(Index)>& fn) {
  util::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t i) {
    fn(static_cast<Index>(i));
  });
}

void parallel_for_chunks(Index n,
                         const std::function<void(Index, Index)>& fn) {
  const Index pieces = (n + kElementwiseChunk - 1) / kElementwiseChunk;
  util::parallel_for(0, static_cast<std::size_t>(pieces), [&](std::size_t c) {
    const Index lo = static_cast<Index>(c) * kElementwiseChunk;
    fn(lo, std::min(n, lo + kElementwiseChunk));
  });
}

// ---- elementwise ----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  mul_inplace(out, b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

Tensor add_scaled(const Tensor& a, const Tensor& b, float s) {
  Tensor out = a;
  add_scaled_inplace(out, b, s);
  return out;
}

// The elementwise bodies live in the runtime-dispatched kernel table
// (tensor/kernels/dispatch.h). Every table entry keeps multiply and add
// separate — never FMA-contracted — so these ops are bit-identical to the
// original loops on every ISA; only the instruction width changes.

void add_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "add");
  kernels::active().add(dst.data(), src.data(), dst.numel());
}

void sub_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "sub");
  kernels::active().sub(dst.data(), src.data(), dst.numel());
}

void mul_inplace(Tensor& dst, const Tensor& src) {
  check_same_shape(dst, src, "mul");
  kernels::active().mul(dst.data(), src.data(), dst.numel());
}

void scale_inplace(Tensor& dst, float s) {
  kernels::active().scale(dst.data(), s, dst.numel());
}

void add_scaled_inplace(Tensor& dst, const Tensor& src, float s) {
  check_same_shape(dst, src, "add_scaled");
  kernels::active().axpy(dst.data(), src.data(), s, dst.numel());
}

void add_scaled_into(Tensor& dst, const Tensor& a, const Tensor& b, float s) {
  check_same_shape(a, b, "add_scaled_into");
  // conlint:allow(hot-path-alloc): resizes only when the destination changes shape; iteration loops pass a stable dst and reuse its buffer
  if (dst.shape() != a.shape()) dst.resize(a.shape());
  kernels::active().axpy_out(dst.data(), a.data(), b.data(), s, a.numel());
}

Tensor sign(const Tensor& a) {
  Tensor out(a.shape());
  kernels::active().sign(out.data(), a.data(), a.numel());
  return out;
}

Tensor clamp(const Tensor& a, float lo, float hi) {
  Tensor out = a;
  clamp_inplace(out, lo, hi);
  return out;
}

void clamp_inplace(Tensor& a, float lo, float hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  kernels::active().clamp(a.data(), lo, hi, a.numel());
}

Tensor relu(const Tensor& a) {
  Tensor out(a.shape());
  const kernels::KernelTable& kt = kernels::active();
  const float* src = a.data();
  float* dst = out.data();
  parallel_for_chunks(a.numel(), [&](Index lo, Index hi) {
    kt.relu(dst + lo, src + lo, hi - lo);
  });
  return out;
}

void relu_inplace(Tensor& a) {
  // The table's relu entries tolerate dst == src (each lane is read before
  // it is written).
  kernels::active().relu(a.data(), a.data(), a.numel());
}

void relu_backward_inplace(Tensor& grad, const Tensor& input) {
  check_same_shape(grad, input, "relu_backward");
  const kernels::KernelTable& kt = kernels::active();
  float* g = grad.data();
  const float* in = input.data();
  parallel_for_chunks(grad.numel(), [&](Index lo, Index hi) {
    kt.relu_bwd(g + lo, in + lo, hi - lo);
  });
}

void bias_add_inplace(Tensor& m, const Tensor& bias) {
  check_rank2(m, "bias_add");
  if (bias.rank() != 1 || bias.dim(0) != m.dim(1)) {
    throw std::invalid_argument("bias_add: bias shape " +
                                bias.shape().to_string() +
                                " does not match columns of " +
                                m.shape().to_string());
  }
  const Index rows = m.dim(0), cols = m.dim(1);
  const kernels::KernelTable& kt = kernels::active();
  for (Index i = 0; i < rows; ++i) {
    kt.add(m.data() + i * cols, bias.data(), cols);
  }
}

void column_sums_add_inplace(Tensor& acc, const Tensor& m) {
  check_rank2(m, "column_sums_add");
  if (acc.rank() != 1 || acc.dim(0) != m.dim(1)) {
    throw std::invalid_argument("column_sums_add: accumulator shape " +
                                acc.shape().to_string() +
                                " does not match columns of " +
                                m.shape().to_string());
  }
  const Index rows = m.dim(0), cols = m.dim(1);
  const kernels::KernelTable& kt = kernels::active();
  // Row-at-a-time accumulation in ascending row order: the exact operation
  // sequence of the original nested loop, so this is bit-identical on every
  // ISA (vector lanes touch disjoint columns).
  for (Index i = 0; i < rows; ++i) {
    kt.add(acc.data(), m.data() + i * cols, cols);
  }
}

// ---- reductions -----------------------------------------------------------

float sum(const Tensor& a) {
  // Plain double accumulation (not Kahan): models here have up to ~1.3M
  // weights, and a double accumulator has 29 spare mantissa bits over
  // float, which is ample at that length. Reductions follow the precision
  // contract in DESIGN.md §5: dot-product-shaped reductions accumulate in
  // double, streaming updates stay in float.
  double acc = 0.0;
  for (float v : a.flat()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("min of empty tensor");
  return *std::min_element(a.flat().begin(), a.flat().end());
}

float max_value(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("max of empty tensor");
  return *std::max_element(a.flat().begin(), a.flat().end());
}

float l2_norm(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.flat()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float linf_norm(const Tensor& a) {
  float m = 0.0f;
  for (float v : a.flat()) m = std::max(m, std::fabs(v));
  return m;
}

double zero_fraction(const Tensor& a) {
  if (a.numel() == 0) return 0.0;
  Index zeros = 0;
  for (float v : a.flat()) {
    if (v == 0.0f) ++zeros;
  }
  return static_cast<double>(zeros) / static_cast<double>(a.numel());
}

Index argmax(const Tensor& a) {
  if (a.numel() == 0) throw std::invalid_argument("argmax of empty tensor");
  const float* d = a.data();
  Index best = 0;
  for (Index i = 1; i < a.numel(); ++i) {
    if (d[i] > d[best]) best = i;
  }
  return best;
}

Index argmax_row(const Tensor& a, Index row) {
  check_rank2(a, "argmax_row");
  const Index cols = a.dim(1);
  if (row < 0 || row >= a.dim(0)) {
    throw std::out_of_range("argmax_row: row out of range");
  }
  const float* d = a.data() + row * cols;
  Index best = 0;
  for (Index i = 1; i < cols; ++i) {
    if (d[i] > d[best]) best = i;
  }
  return best;
}

// ---- linear algebra -------------------------------------------------------

// The matmul family delegates to the blocked kernels in tensor/gemm.h,
// which reproduce the old scalar loops bit-for-bit (see gemm.h for the
// argument) and fall back to them outright below a size threshold.

Tensor matmul(const Tensor& a, const Tensor& b) {
  return gemm::matmul_nn(a, b);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  return gemm::matmul_tn(a, b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  return gemm::matmul_nt(a, b);
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  const Index m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  const float* s = a.data();
  float* d = out.data();
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) d[j * m + i] = s[i * n + j];
  }
  return out;
}

// ---- convolution support ---------------------------------------------------

namespace {

// Lowers one CHW image into its patch-column block. `dst` points at the
// block's first column; rows of the destination matrix are `dst_ld` floats
// apart (oh*ow for a single image, n*oh*ow for a block inside a batched
// matrix). The single-image and batched entry points below share this body,
// differing only in where the blocks sit.
void im2col_image(const float* src, float* dst, Index dst_ld,
                  const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const bool unit = g.stride == 1;
  for (Index c = 0; c < g.in_channels; ++c) {
    for (Index kh = 0; kh < g.kernel_h; ++kh) {
      for (Index kw = 0; kw < g.kernel_w; ++kw) {
        const Index row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        float* drow = dst + row * dst_ld;
        // With stride 1 the patch row is a contiguous slice of the image
        // row shifted by `off`; [x0, x1) is its in-bounds span.
        const Index off = kw - g.padding;
        const Index x0 = unit ? std::max<Index>(0, -off) : 0;
        const Index x1 = unit ? std::min<Index>(ow, g.in_w - off) : 0;
        for (Index y = 0; y < oh; ++y) {
          const Index in_y = y * g.stride + kh - g.padding;
          if (in_y < 0 || in_y >= g.in_h) {
            for (Index x = 0; x < ow; ++x) drow[y * ow + x] = 0.0f;
            continue;
          }
          const float* srow = src + (c * g.in_h + in_y) * g.in_w;
          if (unit) {
            float* d = drow + y * ow;
            for (Index x = 0; x < x0; ++x) d[x] = 0.0f;
            if (x1 > x0) {
              std::memcpy(d + x0, srow + x0 + off,
                          static_cast<std::size_t>(x1 - x0) * sizeof(float));
            }
            for (Index x = std::max(x0, x1); x < ow; ++x) d[x] = 0.0f;
            continue;
          }
          for (Index x = 0; x < ow; ++x) {
            const Index in_x = x * g.stride + kw - g.padding;
            drow[y * ow + x] =
                (in_x >= 0 && in_x < g.in_w) ? srow[in_x] : 0.0f;
          }
        }
      }
    }
  }
}

// Adjoint of im2col_image: accumulates one patch-column block (rows
// `src_ld` floats apart) back into a zero-initialised CHW image.
void col2im_image(const float* src, Index src_ld, float* dst,
                  const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const bool unit = g.stride == 1;
  const kernels::KernelTable& kt = kernels::active();
  for (Index c = 0; c < g.in_channels; ++c) {
    for (Index kh = 0; kh < g.kernel_h; ++kh) {
      for (Index kw = 0; kw < g.kernel_w; ++kw) {
        const Index row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        const float* srow = src + row * src_ld;
        const Index off = kw - g.padding;
        const Index x0 = unit ? std::max<Index>(0, -off) : 0;
        const Index x1 = unit ? std::min<Index>(ow, g.in_w - off) : 0;
        for (Index y = 0; y < oh; ++y) {
          const Index in_y = y * g.stride + kh - g.padding;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* drow = dst + (c * g.in_h + in_y) * g.in_w;
          if (unit) {
            // Contiguous scatter-add over the in-bounds span; the table's
            // add entry is unfused, so every ISA accumulates identically.
            if (x1 > x0) kt.add(drow + x0 + off, srow + y * ow + x0, x1 - x0);
            continue;
          }
          for (Index x = 0; x < ow; ++x) {
            const Index in_x = x * g.stride + kw - g.padding;
            if (in_x >= 0 && in_x < g.in_w) drow[in_x] += srow[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& image, const Conv2dGeometry& g) {
  if (image.rank() != 3 || image.dim(0) != g.in_channels ||
      image.dim(1) != g.in_h || image.dim(2) != g.in_w) {
    throw std::invalid_argument("im2col: image shape " +
                                image.shape().to_string() +
                                " does not match geometry");
  }
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col: non-positive output size");
  }
  Tensor cols({g.in_channels * g.kernel_h * g.kernel_w, oh * ow});
  count_im2col_bytes(cols.numel());
  im2col_image(image.data(), cols.data(), oh * ow, g);
  return cols;
}

Tensor col2im(const Tensor& columns, const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  if (columns.rank() != 2 ||
      columns.dim(0) != g.in_channels * g.kernel_h * g.kernel_w ||
      columns.dim(1) != oh * ow) {
    throw std::invalid_argument("col2im: column shape " +
                                columns.shape().to_string() +
                                " does not match geometry");
  }
  Tensor image({g.in_channels, g.in_h, g.in_w});
  col2im_image(columns.data(), oh * ow, image.data(), g);
  return image;
}

void im2col_batch_into(const Tensor& batch, const Conv2dGeometry& g,
                       Tensor& cols) {
  if (batch.rank() != 4 || batch.dim(1) != g.in_channels ||
      batch.dim(2) != g.in_h || batch.dim(3) != g.in_w) {
    throw std::invalid_argument("im2col_batch: batch shape " +
                                batch.shape().to_string() +
                                " does not match geometry");
  }
  const Index n = batch.dim(0);
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col_batch: non-positive output size");
  }
  const Index plane = oh * ow;
  const Index rows = g.in_channels * g.kernel_h * g.kernel_w;
  const Index cols_per_row = n * plane;
  // im2col_image writes every element, padding zeros included.
  cols.ensure_shape(Shape{rows, cols_per_row});
  count_im2col_bytes(cols.numel());
  const Index image_stride = g.in_channels * g.in_h * g.in_w;
  const float* src = batch.data();
  float* dst = cols.data();
  parallel_for_samples(n, [&](Index i) {
    im2col_image(src + i * image_stride, dst + i * plane, cols_per_row, g);
  });
}

Tensor im2col_batch(const Tensor& batch, const Conv2dGeometry& g) {
  Tensor cols;
  im2col_batch_into(batch, g, cols);
  return cols;
}

Tensor col2im_batch(const Tensor& columns, Index batch_size,
                    const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const Index plane = oh * ow;
  const Index rows = g.in_channels * g.kernel_h * g.kernel_w;
  if (columns.rank() != 2 || columns.dim(0) != rows ||
      columns.dim(1) != batch_size * plane) {
    throw std::invalid_argument("col2im_batch: column shape " +
                                columns.shape().to_string() +
                                " does not match geometry");
  }
  Tensor batch({batch_size, g.in_channels, g.in_h, g.in_w});
  const Index cols_per_row = batch_size * plane;
  const Index image_stride = g.in_channels * g.in_h * g.in_w;
  const float* src = columns.data();
  float* dst = batch.data();
  parallel_for_samples(batch_size, [&](Index i) {
    col2im_image(src + i * plane, cols_per_row, dst + i * image_stride, g);
  });
  return batch;
}

// ---- batched slicing -------------------------------------------------------

Tensor slice_batch(const Tensor& batch, Index n) {
  if (batch.rank() < 1) throw std::invalid_argument("slice_batch: rank 0");
  const Index count = batch.dim(0);
  if (n < 0 || n >= count) {
    throw std::out_of_range("slice_batch: index out of range");
  }
  std::vector<Index> dims(batch.shape().dims().begin() + 1,
                          batch.shape().dims().end());
  Shape sample_shape{std::move(dims)};
  const Index stride = sample_shape.numel();
  Tensor out(sample_shape);
  std::memcpy(out.data(), batch.data() + n * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return out;
}

void set_batch(Tensor& batch, Index n, const Tensor& sample) {
  if (batch.rank() < 1) throw std::invalid_argument("set_batch: rank 0");
  const Index count = batch.dim(0);
  if (n < 0 || n >= count) {
    throw std::out_of_range("set_batch: index out of range");
  }
  const Index stride = batch.numel() / count;
  if (sample.numel() != stride) {
    throw std::invalid_argument("set_batch: sample size mismatch");
  }
  std::memcpy(batch.data() + n * stride, sample.data(),
              static_cast<std::size_t>(stride) * sizeof(float));
}

// ---- batch gather / scatter / compaction -----------------------------------

namespace {

// Batch-row geometry shared by the gather/scatter family: validates that
// `batch` is batched and returns the per-row element count.
Index row_stride(const Tensor& batch, const char* op) {
  if (batch.rank() < 1 || batch.dim(0) == 0) {
    throw std::invalid_argument(std::string(op) + ": empty batch");
  }
  return batch.numel() / batch.dim(0);
}

Shape rows_shape(const Tensor& batch, Index rows) {
  std::vector<Index> dims = batch.shape().dims();
  dims[0] = rows;
  return Shape{std::move(dims)};
}

}  // namespace

Tensor copy_rows(const Tensor& batch, Index lo, Index hi) {
  const Index stride = row_stride(batch, "copy_rows");
  if (lo < 0 || hi > batch.dim(0) || lo > hi) {
    throw std::out_of_range("copy_rows: bad row range");
  }
  Tensor out(rows_shape(batch, hi - lo));
  std::memcpy(out.data(), batch.data() + lo * stride,
              static_cast<std::size_t>((hi - lo) * stride) * sizeof(float));
  return out;
}

void write_rows(Tensor& batch, Index lo, const Tensor& src) {
  const Index stride = row_stride(batch, "write_rows");
  if (src.rank() < 1 || src.numel() != src.dim(0) * stride) {
    throw std::invalid_argument("write_rows: row size mismatch");
  }
  if (lo < 0 || lo + src.dim(0) > batch.dim(0)) {
    throw std::out_of_range("write_rows: bad row range");
  }
  std::memcpy(batch.data() + lo * stride, src.data(),
              static_cast<std::size_t>(src.numel()) * sizeof(float));
}

Tensor gather_rows(const Tensor& batch, const std::vector<Index>& rows) {
  const Index stride = row_stride(batch, "gather_rows");
  Tensor out(rows_shape(batch, static_cast<Index>(rows.size())));
  float* d = out.data();
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const Index r = rows[j];
    if (r < 0 || r >= batch.dim(0)) {
      throw std::out_of_range("gather_rows: row index out of range");
    }
    std::memcpy(d + static_cast<Index>(j) * stride, batch.data() + r * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
  }
  return out;
}

void compact_rows_inplace(Tensor& batch, const std::vector<Index>& keep) {
  const Index stride = row_stride(batch, "compact_rows_inplace");
  float* d = batch.data();
  Index prev = -1;
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const Index r = keep[j];
    if (r <= prev || r >= batch.dim(0)) {
      throw std::invalid_argument(
          "compact_rows_inplace: keep must be ascending and in range");
    }
    prev = r;
    // Ascending keep means the destination row j never overtakes the
    // source row r, so in-place forward moves are safe.
    if (r != static_cast<Index>(j)) {
      std::memmove(d + static_cast<Index>(j) * stride, d + r * stride,
                   static_cast<std::size_t>(stride) * sizeof(float));
    }
  }
  batch.shrink_rows(static_cast<Index>(keep.size()));
}

Tensor stack(const std::vector<Tensor>& samples) {
  if (samples.empty()) throw std::invalid_argument("stack: empty input");
  std::vector<Index> dims;
  dims.push_back(static_cast<Index>(samples.size()));
  for (Index d : samples.front().shape().dims()) dims.push_back(d);
  Tensor out{Shape{std::move(dims)}};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].shape() != samples.front().shape()) {
      throw std::invalid_argument("stack: inconsistent sample shapes");
    }
    set_batch(out, static_cast<Index>(i), samples[i]);
  }
  return out;
}

}  // namespace con::tensor
