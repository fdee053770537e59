#include "tensor/gemm_int8.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/gemm.h"
#include "tensor/kernels/dispatch.h"
#include "util/threadpool.h"

namespace con::tensor::gemm {

namespace {

// Which kernel table served each integer product — the int8 twin of
// gemm.dispatch.blocked.* (gemm.cpp). Run manifests of an integer-path run
// must show these (bench/obs_validate.cpp --expect-integer-path).
obs::Counter& int8_counter(kernels::Isa isa) {
  static obs::Counter* by_isa[kernels::kNumIsas] = {
      &obs::counter("gemm.dispatch.int8.scalar"),
      &obs::counter("gemm.dispatch.int8.avx2")};
  return *by_isa[static_cast<int>(isa)];
}

// Ascending pair skip lists over already-packed pair-interleaved strips:
// pair p of strip s is listed when any of its 2·lanes values is non-zero.
template <typename T>
void build_pair_lists(const T* data, Index ns, Index kpairs, Index lanes,
                      std::vector<std::int32_t>& nnz,
                      std::vector<std::int64_t>& ptr) {
  ptr.clear();
  ptr.reserve(static_cast<std::size_t>(ns) + 1);
  ptr.push_back(0);
  nnz.clear();
  for (Index s = 0; s < ns; ++s) {
    const T* strip = data + s * kpairs * 2 * lanes;
    for (Index p = 0; p < kpairs; ++p) {
      const T* blk = strip + p * 2 * lanes;
      bool live = false;
      for (Index t = 0; t < 2 * lanes; ++t) live = live || (blk[t] != 0);
      if (live) nnz.push_back(static_cast<std::int32_t>(p));
    }
    ptr.push_back(static_cast<std::int64_t>(nnz.size()));
  }
}

// Packs the columns [j0, j0+jn) of a raw k-major code matrix into
// kStripBInt8 pair-interleaved strips plus pair skip lists, reusing the
// caller's scratch (persists across panels — full strip lanes are fully
// overwritten for every k, so only the partial tail strip and, for odd
// depth, the never-written u = 1 lane of the final pair need re-zeroing).
void pack_int8_panel(const std::int8_t* raw, Index ld, Index depth,
                     Index kpairs, Index j0, Index jn,
                     std::vector<std::int8_t>& data, std::vector<char>& flags,
                     std::vector<std::int32_t>& nnz,
                     std::vector<std::int64_t>& ptr) {
  const Index ns = (jn + kStripBInt8 - 1) / kStripBInt8;
  const std::size_t need =
      static_cast<std::size_t>(ns * kpairs * 2 * kStripBInt8);
  // conlint:allow(hot-path-alloc): grows thread_local scratch to its high-water mark once; steady-state panels reuse capacity
  if (data.size() < need) data.resize(need);
  flags.assign(static_cast<std::size_t>(ns * kpairs), 0);
  if (jn % kStripBInt8 != 0) {
    std::int8_t* tail = data.data() + (ns - 1) * kpairs * 2 * kStripBInt8;
    std::fill(tail, tail + kpairs * 2 * kStripBInt8, std::int8_t{0});
  }
  // k outer keeps the reads streaming through the big matrix row by row.
  for (Index k = 0; k < depth; ++k) {
    const Index p = k >> 1;
    const Index u = k & 1;
    const std::int8_t* srow = raw + k * ld + j0;
    for (Index s = 0; s < ns; ++s) {
      const Index c0 = s * kStripBInt8;
      const Index cl = std::min<Index>(kStripBInt8, jn - c0);
      std::int8_t* dst =
          data.data() + ((s * kpairs + p) * kStripBInt8) * 2 + u;
      char nz = 0;
      for (Index t = 0; t < cl; ++t) {
        dst[t * 2] = srow[c0 + t];
        nz |= (dst[t * 2] != 0);
      }
      flags[s * kpairs + p] |= nz;
    }
  }
  if (depth % 2 != 0) {
    // Odd depth: the final pair's u = 1 lane is padding, never written
    // above, and the scratch may hold a previous layer's codes there.
    for (Index s = 0; s < ns; ++s) {
      std::int8_t* blk =
          data.data() + ((s * kpairs + (kpairs - 1)) * kStripBInt8) * 2;
      for (Index t = 0; t < kStripBInt8; ++t) blk[t * 2 + 1] = 0;
    }
  }
  ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  nnz.clear();
  for (Index s = 0; s < ns; ++s) {
    const char* fl = flags.data() + s * kpairs;
    for (Index p = 0; p < kpairs; ++p) {
      // conlint:allow(hot-path-alloc): appends into thread_local scratch that reaches its high-water mark after the first panel
      if (fl[p]) nnz.push_back(static_cast<std::int32_t>(p));
    }
    ptr[static_cast<std::size_t>(s) + 1] =
        static_cast<std::int64_t>(nnz.size());
  }
}

// Lowers one CHW code image into its patch-column block — the int8 twin of
// ops.cpp's im2col_image, padding emitting code 0.
void im2col_image_int8(const std::int8_t* src, std::int8_t* dst, Index dst_ld,
                       const Conv2dGeometry& g) {
  const Index oh = g.out_h(), ow = g.out_w();
  const bool unit = g.stride == 1;
  for (Index c = 0; c < g.in_channels; ++c) {
    for (Index kh = 0; kh < g.kernel_h; ++kh) {
      for (Index kw = 0; kw < g.kernel_w; ++kw) {
        const Index row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        std::int8_t* drow = dst + row * dst_ld;
        const Index off = kw - g.padding;
        const Index x0 = unit ? std::max<Index>(0, -off) : 0;
        const Index x1 = unit ? std::min<Index>(ow, g.in_w - off) : 0;
        for (Index y = 0; y < oh; ++y) {
          const Index in_y = y * g.stride + kh - g.padding;
          if (in_y < 0 || in_y >= g.in_h) {
            for (Index x = 0; x < ow; ++x) drow[y * ow + x] = 0;
            continue;
          }
          const std::int8_t* srow = src + (c * g.in_h + in_y) * g.in_w;
          if (unit) {
            std::int8_t* d = drow + y * ow;
            for (Index x = 0; x < x0; ++x) d[x] = 0;
            for (Index x = x0; x < x1; ++x) d[x] = srow[x + off];
            for (Index x = std::max(x0, x1); x < ow; ++x) d[x] = 0;
            continue;
          }
          for (Index x = 0; x < ow; ++x) {
            const Index in_x = x * g.stride + kw - g.padding;
            drow[y * ow + x] =
                (in_x >= 0 && in_x < g.in_w) ? srow[in_x] : std::int8_t{0};
          }
        }
      }
    }
  }
}

}  // namespace

PackedInt8A pack_int8_a(const std::int8_t* codes, Index rows, Index depth) {
  PackedInt8A p;
  p.rows = rows;
  p.depth = depth;
  p.kpairs = (depth + 1) / 2;
  const Index ns = p.num_strips();
  p.data.assign(static_cast<std::size_t>(ns * p.kpairs * 2 * kStripAInt8), 0);
  for (Index s = 0; s < ns; ++s) {
    const Index r0 = s * kStripAInt8;
    const Index rl = std::min<Index>(kStripAInt8, rows - r0);
    std::int16_t* strip = p.data.data() + s * p.kpairs * 2 * kStripAInt8;
    for (Index i = 0; i < rl; ++i) {
      const std::int8_t* row = codes + (r0 + i) * depth;
      for (Index k = 0; k < depth; ++k) {
        strip[((k >> 1) * kStripAInt8 + i) * 2 + (k & 1)] = row[k];
      }
    }
  }
  build_pair_lists(p.data.data(), ns, p.kpairs, kStripAInt8, p.nnz_p,
                   p.nnz_ptr);
  return p;
}

PackedInt8B pack_int8_b(const std::int8_t* codes, Index rows, Index depth) {
  PackedInt8B p;
  p.rows = rows;
  p.depth = depth;
  p.kpairs = (depth + 1) / 2;
  const Index ns = p.num_strips();
  p.data.assign(static_cast<std::size_t>(ns * p.kpairs * 2 * kStripBInt8), 0);
  for (Index s = 0; s < ns; ++s) {
    const Index r0 = s * kStripBInt8;
    const Index rl = std::min<Index>(kStripBInt8, rows - r0);
    std::int8_t* strip = p.data.data() + s * p.kpairs * 2 * kStripBInt8;
    for (Index i = 0; i < rl; ++i) {
      const std::int8_t* row = codes + (r0 + i) * depth;
      for (Index k = 0; k < depth; ++k) {
        strip[((k >> 1) * kStripBInt8 + i) * 2 + (k & 1)] = row[k];
      }
    }
  }
  build_pair_lists(p.data.data(), ns, p.kpairs, kStripBInt8, p.nnz_p,
                   p.nnz_ptr);
  return p;
}

// conlint:hotpath begin
void matmul_int8(const PackedInt8A& a, const Int8BSource& bsrc, Index n,
                 std::int32_t* c) {
  const Index m = a.rows;
  if (m == 0 || n == 0) return;
  if (bsrc.packed != nullptr && bsrc.packed->kpairs != a.kpairs) {
    throw std::invalid_argument("matmul_int8: operand depth mismatch");
  }
  obs::Span span("gemm.int8");
  const kernels::KernelTable& kt = kernels::active();
  int8_counter(kt.isa).add(1);
  const Index kpairs = a.kpairs;
  const Index npanels = (n + kNC - 1) / kNC;
  const Index na_strips = a.num_strips();
  const std::int16_t* adata = a.data.data();
  const std::int32_t* annz = a.nnz_p.data();
  const std::int64_t* aptr = a.nnz_ptr.data();

  util::parallel_for(0, static_cast<std::size_t>(npanels), [&](std::size_t pi) {
    const Index j0 = static_cast<Index>(pi) * kNC;
    const Index jn = std::min<Index>(kNC, n - j0);
    const Index nb_strips = (jn + kStripBInt8 - 1) / kStripBInt8;
    // Per-worker scratch, reused across panels (gemm.cpp idiom): the
    // buffers stop allocating after the first panel on each thread.
    thread_local std::vector<std::int8_t> scratch;
    thread_local std::vector<char> sflags;
    thread_local std::vector<std::int32_t> snnz;
    thread_local std::vector<std::int64_t> sptr;
    const std::int8_t* bstrips;
    const std::int32_t* bnnz;
    const std::int64_t* bptr;
    if (bsrc.packed != nullptr) {
      // kNC % kStripBInt8 == 0, so a panel is a contiguous strip run.
      const Index s0 = j0 / kStripBInt8;
      bstrips = bsrc.packed->data.data() + s0 * kpairs * 2 * kStripBInt8;
      bnnz = bsrc.packed->nnz_p.data();
      bptr = bsrc.packed->nnz_ptr.data() + s0;
    } else {
      pack_int8_panel(bsrc.raw, bsrc.ld, a.depth, kpairs, j0, jn, scratch,
                      sflags, snnz, sptr);
      bstrips = scratch.data();
      bnnz = snnz.data();
      bptr = sptr.data();
    }
    for (Index sb = 0; sb < nb_strips; ++sb) {
      const Index j = j0 + sb * kStripBInt8;
      const Index nv = std::min<Index>(kStripBInt8, n - j);
      const std::int8_t* bp = bstrips + sb * kpairs * 2 * kStripBInt8;
      const std::int64_t bk0 = bptr[sb];
      const Index bnk = static_cast<Index>(bptr[sb + 1] - bk0);
      for (Index sa = 0; sa < na_strips; ++sa) {
        const Index i = sa * kStripAInt8;
        const Index mv = std::min<Index>(kStripAInt8, m - i);
        const std::int16_t* ap = adata + sa * kpairs * 2 * kStripAInt8;
        const std::int64_t ak0 = aptr[sa];
        const Index ank = static_cast<Index>(aptr[sa + 1] - ak0);
        // Iterate the sparser operand's pair list (every elided pair is
        // all-zero on one side — exactly nothing in integer arithmetic).
        const std::int32_t* kl = nullptr;
        Index nk = kpairs;
        if (ank <= bnk) {
          if (ank < kpairs) {
            kl = annz + ak0;
            nk = ank;
          }
        } else if (bnk < kpairs) {
          kl = bnnz + bk0;
          nk = bnk;
        }
        kt.int8_4x16(kpairs, ap, bp, kl, nk, c + i * n + j, n, mv, nv);
      }
    }
  });
}
// conlint:hotpath end

void quantize_codes(std::int8_t* dst, const float* src, float inv_step,
                    float lo, float hi, Index n) {
  static obs::Counter& calls = obs::counter("requantize.quant_i8");
  calls.add(1);
  kernels::active().quant_i8(dst, src, inv_step, lo, hi, n);
}

void requantize_col_bias(float* y, const std::int32_t* acc,
                         const std::int32_t* bias, int shift, std::int32_t lo,
                         std::int32_t hi, float scale, Index rows,
                         Index cols) {
  static obs::Counter& calls = obs::counter("requantize.col_bias");
  calls.add(1);
  const kernels::KernelTable& kt = kernels::active();
  util::parallel_for(0, static_cast<std::size_t>(rows), [&](std::size_t r) {
    kt.requant_col_bias(y + r * cols, acc + r * cols, bias, shift, lo, hi,
                        scale, 1, cols);
  });
}

void requantize_row_bias(float* y, const std::int32_t* acc,
                         const std::int32_t* bias, int shift, std::int32_t lo,
                         std::int32_t hi, float scale, Index rows,
                         Index cols) {
  static obs::Counter& calls = obs::counter("requantize.row_bias");
  calls.add(1);
  const kernels::KernelTable& kt = kernels::active();
  util::parallel_for(0, static_cast<std::size_t>(rows), [&](std::size_t r) {
    kt.requant_row_bias(y + r * cols, acc + r * cols,
                        bias + static_cast<Index>(r), shift, lo, hi, scale, 1,
                        cols);
  });
}

void im2col_int8_batch(const std::int8_t* batch, Index n,
                       const Conv2dGeometry& g, std::int8_t* cols) {
  const Index oh = g.out_h(), ow = g.out_w();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("im2col_int8_batch: non-positive output size");
  }
  const Index plane = oh * ow;
  const Index rows = g.in_channels * g.kernel_h * g.kernel_w;
  const Index cols_per_row = n * plane;
  static obs::Counter& bytes = obs::counter("im2col.int8.bytes");
  bytes.add(static_cast<std::uint64_t>(rows) *
            static_cast<std::uint64_t>(cols_per_row));
  const Index image_stride = g.in_channels * g.in_h * g.in_w;
  for (Index i = 0; i < n; ++i) {
    im2col_image_int8(batch + i * image_stride, cols + i * plane,
                      cols_per_row, g);
  }
}

}  // namespace con::tensor::gemm
