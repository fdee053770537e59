#include "tensor/gemm.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "tensor/kernels/dispatch.h"
#include "util/threadpool.h"

namespace con::tensor::gemm {

namespace {

// Dispatch counters: which kernel path served each matmul call, plus the
// theoretical flop count (2·M·N·K per call, independent of zero-skip).
// References are resolved once; increments are single relaxed RMWs.
void count_gemm(Index m, Index n, Index k) {
  static obs::Counter& flops = obs::counter("gemm.flops");
  flops.add(static_cast<std::uint64_t>(2) * static_cast<std::uint64_t>(m) *
            static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k));
}

// Small-path calls take the pre-blocking scalar loops whatever the active
// kernel table is; blocked and sparse-axpy calls are counted per ISA so
// run manifests show exactly which micro-kernels served a run.
void count_small_dispatch() {
  static obs::Counter& c = obs::counter("gemm.dispatch.small");
  c.add(1);
}

obs::Counter& blocked_counter(kernels::Isa isa) {
  static obs::Counter* by_isa[kernels::kNumIsas] = {
      &obs::counter("gemm.dispatch.blocked.scalar"),
      &obs::counter("gemm.dispatch.blocked.avx2")};
  return *by_isa[static_cast<int>(isa)];
}

obs::Counter& axpy_counter(kernels::Isa isa) {
  static obs::Counter* by_isa[kernels::kNumIsas] = {
      &obs::counter("gemm.dispatch.sparse_axpy.scalar"),
      &obs::counter("gemm.dispatch.sparse_axpy.avx2")};
  return *by_isa[static_cast<int>(isa)];
}

void check_rank2(const Tensor& t, const char* op) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected rank-2, got " +
                                t.shape().to_string());
  }
}

void check_inner(Index got, Index want, const char* op) {
  if (got != want) {
    throw std::invalid_argument(std::string(op) + ": inner dims mismatch");
  }
}


// Builds the per-strip ascending k-lists and the element count over
// already-packed strip storage.
void build_skip_lists(PackedMatrix& p) {
  const Index ns = p.num_strips();
  p.nnz_ptr.clear();
  p.nnz_ptr.reserve(static_cast<std::size_t>(ns) + 1);
  p.nnz_ptr.push_back(0);
  p.nnz_k.clear();
  p.nnz = 0;
  for (Index s = 0; s < ns; ++s) {
    const float* strip = p.data.data() + s * p.depth * p.strip;
    for (Index k = 0; k < p.depth; ++k) {
      const float* col = strip + k * p.strip;
      Index nz = 0;
      for (Index t = 0; t < p.strip; ++t) nz += (col[t] != 0.0f);
      if (nz > 0) p.nnz_k.push_back(static_cast<std::int32_t>(k));
      p.nnz += nz;
    }
    p.nnz_ptr.push_back(static_cast<std::int64_t>(p.nnz_k.size()));
  }
}

// The register-tile micro-kernels live in the runtime-dispatched kernel
// table (tensor/kernels/dispatch.h): kernels/kernel_scalar.h holds the
// loops these kernels always ran, kernel_avx2.cpp the bit-identical
// vectorized variants the first-use probe selects on AVX2 hosts. Packing,
// panel threading and the zero-skip lists below are ISA-independent and
// feed every table entry the same strips.

// The right operand of an NN/TN call: either a pre-packed matrix (cached
// weight panels) or raw k-major storage (raw[k*ld + j], [K,N]) packed
// panel-by-panel inside each task.
struct BSource {
  const PackedMatrix* packed = nullptr;
  const float* raw = nullptr;
  Index ld = 0;  // leading dimension of raw storage
};

// Packs the columns [j0, j0+jn) of a raw right operand into kStripB strips
// plus skip lists, reusing the caller's scratch vectors (which persist
// across panels, so only the partial tail strip needs re-zeroing — full
// strip columns are completely overwritten). Zero detection is fused into
// the copy (the flags array is 8× smaller than the panel) so the packed
// floats are written once and never re-read here. The inner row scatter
// goes through the kernel table's pack_row entry — a pure byte shuffle,
// bit-identical on every ISA (dispatch.h).
void pack_panel(const kernels::KernelTable& kt, const BSource& b, Index depth,
                Index j0, Index jn, std::vector<float>& data,
                std::vector<char>& flags, std::vector<std::int32_t>& nnz,
                std::vector<std::int64_t>& ptr) {
  const Index ns = (jn + kStripB - 1) / kStripB;
  const std::size_t need = static_cast<std::size_t>(ns * depth * kStripB);
  if (data.size() < need) data.resize(need);
  flags.assign(static_cast<std::size_t>(ns * depth), 0);
  if (jn % kStripB != 0) {
    float* tail = data.data() + (ns - 1) * depth * kStripB;
    std::fill(tail, tail + depth * kStripB, 0.0f);
  }
  // k outer keeps the reads streaming through the big matrix row by row.
  for (Index k = 0; k < depth; ++k) {
    kt.pack_row(data.data(), b.raw + k * b.ld + j0, jn, depth, k,
                flags.data());
  }
  ptr.clear();
  ptr.reserve(static_cast<std::size_t>(ns) + 1);
  ptr.push_back(0);
  nnz.clear();
  for (Index s = 0; s < ns; ++s) {
    const char* fl = flags.data() + s * depth;
    for (Index k = 0; k < depth; ++k) {
      if (fl[k]) nnz.push_back(static_cast<std::int32_t>(k));
    }
    ptr.push_back(static_cast<std::int64_t>(nnz.size()));
  }
}

// Below this density a packed float-accumulating left operand is cheaper
// to multiply as per-row axpy sweeps over its skip lists (the scalar
// loops' own strategy) than as register tiles: the tile pays for every
// live strip column even when three of its four rows are zero there, and
// the right operand no longer needs packing at all.
constexpr Index kSparseAxpyDensityPct = 25;

// Row-axpy kernel for heavily pruned packed A against raw k-major B.
// Identical per-element operation sequence to reference_nn: each C row
// starts at zero and accumulates av·B[k,·] in ascending k, skipping zero
// av, as full-row streaming sweeps (the prefetch-friendly pattern of the
// scalar loops).
// Parallel over C rows — every element has exactly one owner, so the
// output does not depend on the thread count.
// conlint:hotpath begin
void sparse_axpy(const kernels::KernelTable& kt, const PackedMatrix& a,
                 const float* b, Index ldb, Index n, float* c) {
  util::parallel_for(0, static_cast<std::size_t>(a.rows), [&](std::size_t r) {
    const Index row = static_cast<Index>(r);
    const Index s = row / a.strip;
    const Index t = row % a.strip;
    const float* strip = a.data.data() + s * a.depth * a.strip;
    const std::int32_t* kl =
        a.nnz_k.data() + a.nnz_ptr[static_cast<std::size_t>(s)];
    const Index nk =
        static_cast<Index>(a.nnz_ptr[static_cast<std::size_t>(s) + 1] -
                           a.nnz_ptr[static_cast<std::size_t>(s)]);
    float* crow = c + row * n;
    std::fill(crow, crow + n, 0.0f);
    for (Index u = 0; u < nk; ++u) {
      const Index k = kl[u];
      const float av = strip[k * a.strip + t];
      if (av == 0.0f) continue;
      // The table's axpy entry never fuses multiply and add, so this path
      // stays bit-identical to the scalar loops on every ISA (dispatch.h).
      kt.axpy(crow, b + k * ldb, av, n);
    }
  });
}
// conlint:hotpath end

// Drives a full C[M,N] = A·B product from a kStripA-packed left operand
// and a BSource through the table's float tile, writing every element of
// C whatever it held before. Parallel over kNC-column panels: each task
// owns a disjoint column range of C and computes every one of its elements
// exactly once, so the output is independent of the thread count.
void gemm_blocked(const kernels::KernelTable& kt, const PackedMatrix& a,
                  const BSource& bsrc, Index n, float* c) {
  constexpr Index MR = kStripA;
  const Index m = a.rows;
  const Index depth = a.depth;
  if (m == 0 || n == 0) return;
  if (bsrc.packed == nullptr &&
      a.nnz * 100 <= m * depth * kSparseAxpyDensityPct) {
    axpy_counter(kt.isa).add(1);
    sparse_axpy(kt, a, bsrc.raw, bsrc.ld, n, c);
    return;
  }
  blocked_counter(kt.isa).add(1);
  const Index npanels = (n + kNC - 1) / kNC;
  const Index na_strips = a.num_strips();
  const float* adata = a.data.data();
  const std::int32_t* annz = a.nnz_k.data();
  const std::int64_t* aptr = a.nnz_ptr.data();

  static obs::Histogram& panel_hist = obs::histogram("gemm.panel_ns");
  util::parallel_for(0, static_cast<std::size_t>(npanels), [&](std::size_t pi) {
    obs::ScopedTimer panel_timer(panel_hist);
    const Index j0 = static_cast<Index>(pi) * kNC;
    const Index jn = std::min<Index>(kNC, n - j0);
    const Index nb_strips = (jn + kStripB - 1) / kStripB;
    // Per-worker scratch, reused across panels: pack_panel only rewrites
    // what the current panel covers, so the buffers stop allocating (and
    // stop paying a full zero-fill) after the first panel on each thread.
    thread_local std::vector<float> scratch;
    thread_local std::vector<char> sflags;
    thread_local std::vector<std::int32_t> snnz;
    thread_local std::vector<std::int64_t> sptr;
    const float* bstrips;
    const std::int32_t* bnnz;
    const std::int64_t* bptr;
    if (bsrc.packed != nullptr) {
      // kNC % kStripB == 0, so a panel is a contiguous run of strips.
      const Index s0 = j0 / kStripB;
      bstrips = bsrc.packed->data.data() + s0 * depth * kStripB;
      bnnz = bsrc.packed->nnz_k.data();
      bptr = bsrc.packed->nnz_ptr.data() + s0;
    } else {
      pack_panel(kt, bsrc, depth, j0, jn, scratch, sflags, snnz, sptr);
      bstrips = scratch.data();
      bnnz = snnz.data();
      bptr = sptr.data();
    }
    // B strip outermost (stays in L1 across the sweep of A strips).
    for (Index sb = 0; sb < nb_strips; ++sb) {
      const Index j = j0 + sb * kStripB;
      const Index nv = std::min<Index>(kStripB, n - j);
      const float* bp = bstrips + sb * depth * kStripB;
      const std::int64_t bk0 = bptr[sb];
      const Index bnk = static_cast<Index>(bptr[sb + 1] - bk0);
      for (Index sa = 0; sa < na_strips; ++sa) {
        const Index i = sa * MR;
        const Index mv = std::min<Index>(MR, m - i);
        const float* ap = adata + sa * depth * MR;
        const std::int64_t ak0 = aptr[sa];
        const Index ank = static_cast<Index>(aptr[sa + 1] - ak0);
        // Iterate the sparser operand's k-list (every elided term has a
        // zero factor, so the result is unchanged); dense strips take the
        // indirection-free loop.
        const std::int32_t* kl = nullptr;
        Index nk = depth;
        if (ank <= bnk) {
          if (ank < depth) {
            kl = annz + ak0;
            nk = ank;
          }
        } else if (bnk < depth) {
          kl = bnnz + bk0;
          nk = bnk;
        }
        kt.nn_4x8(depth, ap, bp, kl, nk, c + i * n + j, n, mv, nv);
      }
    }
  });
}

PackedMatrix pack_impl(const float* src, Index rows, Index depth,
                       bool row_major, Index strip) {
  PackedMatrix p;
  p.rows = rows;
  p.depth = depth;
  p.strip = strip;
  const Index ns = p.num_strips();
  p.data.assign(static_cast<std::size_t>(ns * depth * strip), 0.0f);
  for (Index s = 0; s < ns; ++s) {
    const Index r0 = s * strip;
    const Index rl = std::min(strip, rows - r0);
    float* dst = p.data.data() + s * depth * strip;
    if (row_major) {
      for (Index t = 0; t < rl; ++t) {
        const float* row = src + (r0 + t) * depth;
        for (Index k = 0; k < depth; ++k) dst[k * strip + t] = row[k];
      }
    } else {
      for (Index k = 0; k < depth; ++k) {
        const float* row = src + k * rows + r0;
        for (Index t = 0; t < rl; ++t) dst[k * strip + t] = row[t];
      }
    }
  }
  build_skip_lists(p);
  return p;
}

}  // namespace

PackedMatrix pack_rowmajor(const Tensor& m, Index strip) {
  check_rank2(m, "pack_rowmajor");
  return pack_impl(m.data(), m.dim(0), m.dim(1), /*row_major=*/true, strip);
}

PackedMatrix pack_colmajor(const Tensor& m, Index strip) {
  check_rank2(m, "pack_colmajor");
  return pack_impl(m.data(), m.dim(1), m.dim(0), /*row_major=*/false, strip);
}

// ---- NN: C[M,N] = A[M,K] · B[K,N] ------------------------------------------

Tensor matmul_nn(const PackedMatrix& a, const Tensor& b) {
  check_rank2(b, "matmul_nn");
  check_inner(b.dim(0), a.depth, "matmul_nn");
  obs::Span span("gemm.nn");
  count_gemm(a.rows, b.dim(1), a.depth);
  const kernels::KernelTable& kt = kernels::active();
  Tensor c({a.rows, b.dim(1)});
  BSource bs{.raw = b.data(), .ld = b.dim(1)};
  gemm_blocked(kt, a, bs, b.dim(1), c.data());
  return c;
}

Tensor matmul_nn(const Tensor& a, const PackedMatrix& b) {
  check_rank2(a, "matmul_nn");
  check_inner(a.dim(1), b.depth, "matmul_nn");
  obs::Span span("gemm.nn");
  count_gemm(a.dim(0), b.rows, b.depth);
  const kernels::KernelTable& kt = kernels::active();
  PackedMatrix pa = pack_rowmajor(a, kStripA);
  Tensor c({a.dim(0), b.rows});
  BSource bs{.packed = &b};
  gemm_blocked(kt, pa, bs, b.rows, c.data());
  return c;
}

Tensor matmul_nn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  obs::Span span("gemm.nn");
  count_gemm(m, n, k);
  const kernels::KernelTable& kt = kernels::active();
  if (m * n * k <= kt.small_gemm_flops) {
    count_small_dispatch();
    return reference_nn(a, b);
  }
  PackedMatrix pa = pack_rowmajor(a, kStripA);
  Tensor c({m, n});
  BSource bs{.raw = b.data(), .ld = n};
  gemm_blocked(kt, pa, bs, n, c.data());
  return c;
}

// ---- TN: C[M,N] = A[K,M]ᵀ · B[K,N] -----------------------------------------

Tensor matmul_tn(const PackedMatrix& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(a, b, c);
  return c;
}

void matmul_tn_into(const PackedMatrix& a, const Tensor& b, Tensor& c) {
  check_rank2(b, "matmul_tn");
  check_inner(b.dim(0), a.depth, "matmul_tn");
  obs::Span span("gemm.tn");
  count_gemm(a.rows, b.dim(1), a.depth);
  const kernels::KernelTable& kt = kernels::active();
  // gemm_blocked writes every element of C.
  c.ensure_shape(Shape{a.rows, b.dim(1)});
  BSource bs{.raw = b.data(), .ld = b.dim(1)};
  gemm_blocked(kt, a, bs, b.dim(1), c.data());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_tn");
  check_rank2(b, "matmul_tn");
  const Index k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul_tn: inner dims mismatch");
  }
  obs::Span span("gemm.tn");
  count_gemm(m, n, k);
  const kernels::KernelTable& kt = kernels::active();
  if (m * n * k <= kt.small_gemm_flops) {
    count_small_dispatch();
    return reference_tn(a, b);
  }
  PackedMatrix pa = pack_colmajor(a, kStripA);
  Tensor c({m, n});
  BSource bs{.raw = b.data(), .ld = n};
  gemm_blocked(kt, pa, bs, n, c.data());
  return c;
}

// ---- NT: C[M,N] = A[M,K] · B[N,K]ᵀ -----------------------------------------

namespace {

// The right operand of an NT call: the cached double rows of a PackedNt,
// or raw row-major float B[N,K] converted block by block inside each task.
struct NtSource {
  const PackedNt* packed = nullptr;
  const float* raw = nullptr;
};

// The least NT tile work worth a parallel_for claim, in flops: below it,
// waking a pool thread costs about as much as the work it would take over.
constexpr Index kNtClaimFlops = Index{1} << 20;

// C[M,N] = A·Bᵀ through the table's nt_4x8 tile, in kNtKc blocks of K.
// The split is one task per kStripB-column strip of C, and each strip's
// elements have that task as their only owner. parallel_for_ranges hands
// a claim a run of neighbouring strips, which it sweeps block by block:
// per block, A's rows become k-major double strips once for the whole run
// and each strip converts only its own B rows, so a single claim (every
// 1-thread call) converts exactly what one panel did before. Each 4×8 tile
// advances its chains over the block; the chains live in a per-claim
// double buffer between blocks and are rounded to float once at the end,
// so every element is reference_nt's ascending-k double sum, whatever run
// of strips it arrived in: the output is independent of the thread count.
// A claim carries at least kNtClaimFlops, so a small product (DeepFool's
// one-row Linear calls) stays a single inline claim.
void gemm_nt(const kernels::KernelTable& kt, const Tensor& a,
             const NtSource& b, Index n, float* c) {
  const Index m = a.dim(0);
  const Index depth = a.dim(1);
  if (m == 0 || n == 0) return;
  blocked_counter(kt.isa).add(1);
  constexpr Index kTile = kStripA * kStripB;
  const Index na_strips = (m + kStripA - 1) / kStripA;
  const Index nstrips = (n + kStripB - 1) / kStripB;
  const Index strip_flops = 2 * na_strips * kStripA * kStripB * depth;
  const auto grain = static_cast<std::size_t>(
      std::max<Index>(1, (kNtClaimFlops + strip_flops - 1) / strip_flops));
  static obs::Histogram& panel_hist = obs::histogram("gemm.panel_ns");
  util::parallel_for_ranges(
      0, static_cast<std::size_t>(nstrips),
      [&](std::size_t s0, std::size_t s1) {
        obs::ScopedTimer panel_timer(panel_hist);
        const Index j0 = static_cast<Index>(s0) * kStripB;
        const Index nb_strips = static_cast<Index>(s1 - s0);
        // Per-worker scratch, reused across claims: the A block strips, one
        // converted B strip, and the run's double accumulator tiles
        // (acc[(sb*na_strips + sa)*kTile + j*kStripA + i]).
        thread_local std::vector<double> ablk;
        thread_local std::vector<double> bblk;
        thread_local std::vector<double> acc;
        ablk.resize(static_cast<std::size_t>(na_strips * kNtKc * kStripA));
        bblk.resize(static_cast<std::size_t>(kStripB * kNtKc));
        acc.assign(static_cast<std::size_t>(nb_strips * na_strips * kTile),
                   0.0);
        for (Index k0 = 0; k0 < depth; k0 += kNtKc) {
          const Index kc = std::min<Index>(kNtKc, depth - k0);
          for (Index sa = 0; sa < na_strips; ++sa) {
            const Index i = sa * kStripA;
            kt.nt_pack_a(a.data() + i * depth + k0, depth,
                         std::min<Index>(kStripA, m - i), kc,
                         ablk.data() + sa * kc * kStripA);
          }
          // B strip outermost (stays in L1 across the sweep of A strips).
          for (Index sb = 0; sb < nb_strips; ++sb) {
            const Index j = j0 + sb * kStripB;
            const Index nv = std::min<Index>(kStripB, n - j);
            const double* bp;
            Index ldb;
            if (b.packed != nullptr) {
              bp = b.packed->data.data() + j * depth + k0;
              ldb = depth;
            } else {
              kt.nt_pack_b(b.raw + j * depth + k0, depth, nv, kc,
                           bblk.data());
              bp = bblk.data();
              ldb = kc;
            }
            double* tiles = acc.data() + sb * na_strips * kTile;
            for (Index sa = 0; sa < na_strips; ++sa) {
              kt.nt_4x8(kc, ablk.data() + sa * kc * kStripA, bp, ldb,
                        tiles + sa * kTile, nv);
            }
          }
        }
        for (Index sb = 0; sb < nb_strips; ++sb) {
          const Index j = j0 + sb * kStripB;
          const Index nv = std::min<Index>(kStripB, n - j);
          for (Index sa = 0; sa < na_strips; ++sa) {
            const Index i = sa * kStripA;
            const Index mv = std::min<Index>(kStripA, m - i);
            const double* tile = acc.data() + (sb * na_strips + sa) * kTile;
            for (Index r = 0; r < mv; ++r) {
              for (Index t = 0; t < nv; ++t) {
                c[(i + r) * n + j + t] =
                    static_cast<float>(tile[t * kStripA + r]);
              }
            }
          }
        }
      },
      grain);
}

}  // namespace

PackedNt pack_nt(const Tensor& b) {
  check_rank2(b, "pack_nt");
  PackedNt p;
  p.rows = b.dim(0);
  p.depth = b.dim(1);
  p.data.assign(b.data(), b.data() + b.numel());
  return p;
}

Tensor matmul_nt(const Tensor& a, const PackedNt& b) {
  check_rank2(a, "matmul_nt");
  check_inner(a.dim(1), b.depth, "matmul_nt");
  obs::Span span("gemm.nt");
  count_gemm(a.dim(0), b.rows, b.depth);
  const kernels::KernelTable& kt = kernels::active();
  Tensor c({a.dim(0), b.rows});
  gemm_nt(kt, a, NtSource{.packed = &b}, b.rows, c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul_nt");
  check_rank2(b, "matmul_nt");
  const Index m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_nt: inner dims mismatch");
  }
  obs::Span span("gemm.nt");
  count_gemm(m, n, k);
  const kernels::KernelTable& kt = kernels::active();
  if (m * n * k <= kt.small_gemm_flops) {
    count_small_dispatch();
    return reference_nt(a, b);
  }
  Tensor c({m, n});
  gemm_nt(kt, a, NtSource{.raw = b.data()}, n, c.data());
  return c;
}

}  // namespace con::tensor::gemm
