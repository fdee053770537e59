// AVX2+FMA kernel table (x86-64).
//
// Compiled with per-TU `-mavx2 -mfma -ffp-contract=off` (src/tensor/
// CMakeLists.txt) so the rest of the tree stays baseline-ISA: these
// functions are only reached through the dispatch table after the runtime
// cpuid probe confirms the host executes them. `-ffp-contract=off` matters:
// the one fused multiply-add below is the explicit _mm256_fmadd_pd of the
// double NT tile, and every float multiply+add stays unfused — the
// compiler may not re-contract them, or the bit-identity contract
// (dispatch.h) would silently break.
//
// Every entry is bit-identical to the scalar table (DESIGN.md §5):
//  - nn_4x8: float accumulators, one chain per output element, k ascending,
//    separate multiply and add — the scalar operation sequence per lane.
//  - nt_4x8: double accumulators, ascending k, one chain per element, no
//    skip lists (every term is added, as in reference_nt). A product of
//    two floats is exact in double (24+24 < 53 mantissa bits), so fused
//    and unfused rounding agree.
//  - axpy / elementwise: multiply and add kept separate.
//  - fake_quant: exact power-of-two scaling, vroundps half-even and
//    NaN-preserving min/max — the scalar nearbyint loop per lane.
//  - int8: integer arithmetic, exact in any order.
#include "tensor/kernels/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "tensor/kernels/kernel_scalar.h"

namespace con::tensor::kernels {

namespace {

// conlint:hotpath begin

// Float register-tile kernel, MR=4 (gemm::kStripA), NR=8 (gemm::kStripB).
// One ymm accumulator per row, fed k ascending with a separate multiply and
// add: per lane that is the scalar kernel's `acc += a * b`, so the tile is
// bit-identical to it. The scalar kernel's zero-row skip needs no branch: a
// zero A lane adds ±0 (B is finite), which never changes an accumulator
// that starts at +0 (gemm.h).
void nn_4x8_avx2(Index depth, const float* __restrict ap,
                 const float* __restrict bp,
                 const std::int32_t* __restrict klist, Index nk, float* c,
                 Index ldc, Index mv, Index nv) {
  __m256 r0 = _mm256_setzero_ps(), r1 = r0, r2 = r0, r3 = r0;
  auto step = [&](Index k) {
    const float* a = ap + k * 4;
    const __m256 b = _mm256_loadu_ps(bp + k * 8);
    r0 = _mm256_add_ps(r0, _mm256_mul_ps(_mm256_broadcast_ss(a + 0), b));
    r1 = _mm256_add_ps(r1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), b));
    r2 = _mm256_add_ps(r2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), b));
    r3 = _mm256_add_ps(r3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), b));
  };
  if (klist == nullptr) {
    for (Index k = 0; k < depth; ++k) step(k);
  } else {
    for (Index t = 0; t < nk; ++t) step(klist[t]);
  }
  if (mv == 4 && nv == 8) {
    _mm256_storeu_ps(c + 0 * ldc, r0);
    _mm256_storeu_ps(c + 1 * ldc, r1);
    _mm256_storeu_ps(c + 2 * ldc, r2);
    _mm256_storeu_ps(c + 3 * ldc, r3);
  } else {
    alignas(32) float tile[4][8];
    _mm256_store_ps(tile[0], r0);
    _mm256_store_ps(tile[1], r1);
    _mm256_store_ps(tile[2], r2);
    _mm256_store_ps(tile[3], r3);
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = tile[i][j];
    }
  }
}

// NT tile in double (dispatch.h NtTileFn), one instantiation per column
// count so a tail strip runs only its live columns. NV ymm accumulators,
// one per C column, each holding that column's 4 rows; per k one load of
// the A strip and NV memory broadcasts of B feed NV FMAs. Every output
// element is one chain in ascending k, exactly like the scalar kernel, and
// float·float products are exact in double, so the explicit FMA rounds
// like the scalar multiply-then-add: bit-identical (the claim
// tests/test_kernels.cpp asserts bitwise).
template <int NV>
void nt_tile_avx2(Index kn, const double* __restrict ap,
                  const double* __restrict bp, Index ldb,
                  double* __restrict acc) {
  __m256d c[NV];
  const double* b[NV];
  for (int j = 0; j < NV; ++j) {
    c[j] = _mm256_loadu_pd(acc + j * 4);
    b[j] = bp + j * ldb;
  }
  auto step = [&](Index k) {
    const __m256d a = _mm256_loadu_pd(ap + k * 4);
    for (int j = 0; j < NV; ++j) {
      c[j] = _mm256_fmadd_pd(a, _mm256_broadcast_sd(b[j] + k), c[j]);
    }
  };
  // Unrolled by 4 so the address arithmetic is shared; k stays ascending.
  Index k = 0;
  for (; k + 4 <= kn; k += 4) {
    step(k);
    step(k + 1);
    step(k + 2);
    step(k + 3);
  }
  for (; k < kn; ++k) step(k);
  for (int j = 0; j < NV; ++j) _mm256_storeu_pd(acc + j * 4, c[j]);
}

void nt_4x8_avx2(Index kn, const double* ap, const double* bp, Index ldb,
                 double* acc, Index nv) {
  switch (nv) {
    case 1: return nt_tile_avx2<1>(kn, ap, bp, ldb, acc);
    case 2: return nt_tile_avx2<2>(kn, ap, bp, ldb, acc);
    case 3: return nt_tile_avx2<3>(kn, ap, bp, ldb, acc);
    case 4: return nt_tile_avx2<4>(kn, ap, bp, ldb, acc);
    case 5: return nt_tile_avx2<5>(kn, ap, bp, ldb, acc);
    case 6: return nt_tile_avx2<6>(kn, ap, bp, ldb, acc);
    case 7: return nt_tile_avx2<7>(kn, ap, bp, ldb, acc);
    default: return nt_tile_avx2<8>(kn, ap, bp, ldb, acc);
  }
}

// The NT tile's A strip (dispatch.h NtPackAFn): per 4 k, four row loads
// widened to double, then a 4×4 transpose (unpack + lane permute) into
// four k-major stores. A pure conversion and shuffle, so the bytes equal
// the scalar entry's.
void nt_pack_a_avx2(const float* a, Index lda, Index mv, Index kc,
                    double* dst) {
  // Rows past mv are never read; their pointers just stay in bounds.
  const float* r0 = a;
  const float* r1 = mv > 1 ? a + lda : a;
  const float* r2 = mv > 2 ? a + 2 * lda : a;
  const float* r3 = mv > 3 ? a + 3 * lda : a;
  const __m128 zero = _mm_setzero_ps();
  Index k = 0;
  for (; k + 4 <= kc; k += 4) {
    const __m256d x0 = _mm256_cvtps_pd(_mm_loadu_ps(r0 + k));
    const __m256d x1 = _mm256_cvtps_pd(mv > 1 ? _mm_loadu_ps(r1 + k) : zero);
    const __m256d x2 = _mm256_cvtps_pd(mv > 2 ? _mm_loadu_ps(r2 + k) : zero);
    const __m256d x3 = _mm256_cvtps_pd(mv > 3 ? _mm_loadu_ps(r3 + k) : zero);
    const __m256d t0 = _mm256_unpacklo_pd(x0, x1);  // r0k0 r1k0 r0k2 r1k2
    const __m256d t1 = _mm256_unpackhi_pd(x0, x1);  // r0k1 r1k1 r0k3 r1k3
    const __m256d t2 = _mm256_unpacklo_pd(x2, x3);
    const __m256d t3 = _mm256_unpackhi_pd(x2, x3);
    double* d = dst + k * 4;
    _mm256_storeu_pd(d + 0, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(d + 4, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(d + 8, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(d + 12, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; k < kc; ++k) {
    dst[k * 4 + 0] = r0[k];
    dst[k * 4 + 1] = mv > 1 ? r1[k] : 0.0;
    dst[k * 4 + 2] = mv > 2 ? r2[k] : 0.0;
    dst[k * 4 + 3] = mv > 3 ? r3[k] : 0.0;
  }
}

// The NT tile's B rows (dispatch.h NtPackBFn): 4 floats widened per
// instruction; the k tail runs the scalar entry.
void nt_pack_b_avx2(const float* b, Index ldb, Index nv, Index kc,
                    double* dst) {
  for (Index j = 0; j < nv; ++j) {
    const float* src = b + j * ldb;
    double* row = dst + j * kc;
    Index k = 0;
    for (; k + 8 <= kc; k += 8) {
      _mm256_storeu_pd(row + k, _mm256_cvtps_pd(_mm_loadu_ps(src + k)));
      _mm256_storeu_pd(row + k + 4,
                       _mm256_cvtps_pd(_mm_loadu_ps(src + k + 4)));
    }
    scalar::nt_pack_b(src + k, ldb, 1, kc - k, row + k);
  }
}

// ---- elementwise: unfused multiply+add, bit-identical to scalar -------------
// Remainders run the scalar loops from kernel_scalar.h so there is exactly
// one definition of the per-element operation.

void axpy_avx2(float* d, const float* s, float a, Index n) {
  const __m256 av = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sv = _mm256_loadu_ps(s + i);
    const __m256 dv = _mm256_loadu_ps(d + i);
    _mm256_storeu_ps(d + i, _mm256_add_ps(dv, _mm256_mul_ps(av, sv)));
  }
  scalar::axpy(d + i, s + i, a, n - i);
}

void axpy_out_avx2(float* d, const float* a, const float* b, float s,
                   Index n) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    _mm256_storeu_ps(d + i, _mm256_add_ps(av, _mm256_mul_ps(sv, bv)));
  }
  scalar::axpy_out(d + i, a + i, b + i, s, n - i);
}

void add_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_add_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::add(d + i, s + i, n - i);
}

void sub_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_sub_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::sub(d + i, s + i, n - i);
}

void mul_avx2(float* d, const float* s, Index n) {
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), _mm256_loadu_ps(s + i)));
  }
  scalar::mul(d + i, s + i, n - i);
}

void scale_avx2(float* d, float s, Index n) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(d + i), sv));
  }
  scalar::scale(d + i, s, n - i);
}

// min/max operand order replicates std::min(hi, std::max(lo, x)) ties:
// vmaxps/vminps return the second operand on equality, and
// std::max(lo, x) == lo / std::min(hi, t) == hi on equality, so the
// second operand must be lo / hi respectively.
void clamp_avx2(float* d, float lo, float hi, Index n) {
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(d + i);
    _mm256_storeu_ps(d + i, _mm256_min_ps(_mm256_max_ps(x, lov), hiv));
  }
  scalar::clamp(d + i, lo, hi, n - i);
}

// x > 0 ? x : 0 via a comparison mask (not vmaxps) so that relu(-0.0f)
// returns +0.0f exactly like the scalar branch.
void relu_avx2(float* d, const float* s, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(s + i);
    const __m256 pos = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(d + i, _mm256_and_ps(x, pos));
  }
  scalar::relu(d + i, s + i, n - i);
}

void sign_avx2(float* d, const float* s, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 neg_one = _mm256_set1_ps(-1.0f);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(s + i);
    const __m256 pos = _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_GT_OQ), one);
    const __m256 neg =
        _mm256_and_ps(_mm256_cmp_ps(x, zero, _CMP_LT_OQ), neg_one);
    _mm256_storeu_ps(d + i, _mm256_or_ps(pos, neg));
  }
  scalar::sign(d + i, s + i, n - i);
}

void relu_bwd_avx2(float* g, const float* in, Index n) {
  const __m256 zero = _mm256_setzero_ps();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(in + i);
    const __m256 keep = _mm256_cmp_ps(x, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(_mm256_loadu_ps(g + i), keep));
  }
  scalar::relu_bwd(g + i, in + i, n - i);
}

// Fixed-point fake-quantisation (dispatch.h FakeQuantFn). x·inv_step is
// exact (power of two), vroundps with _MM_FROUND_TO_NEAREST_INT rounds half
// to even like std::nearbyint in the default FP environment and, unlike
// vcvtps2dq, stays right for |x·2^f| ≥ 2³¹, ±inf and NaN. vmaxps/vminps
// return their second operand when either is NaN and on equality, so
// max(lo, q) and min(hi, ·) are `if (q < lo) q = lo; if (q > hi) q = hi;`
// exactly: a NaN q passes through, and q == ±bound keeps q's sign of zero.
// Ordered LT/GT compares make the gate 1 for NaN, like the scalar test.
void fake_quant_avx2(float* out, float* gate, const float* in, float inv_step,
                     float step, float lo, float hi, Index n) {
  const __m256 inv = _mm256_set1_ps(inv_step);
  const __m256 stv = _mm256_set1_ps(step);
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  const __m256 one = _mm256_set1_ps(1.0f);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 q = _mm256_mul_ps(
        _mm256_round_ps(_mm256_mul_ps(_mm256_loadu_ps(in + i), inv),
                        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
        stv);
    const __m256 saturated = _mm256_or_ps(_mm256_cmp_ps(q, lov, _CMP_LT_OQ),
                                          _mm256_cmp_ps(q, hiv, _CMP_GT_OQ));
    _mm256_storeu_ps(out + i, _mm256_min_ps(hiv, _mm256_max_ps(lov, q)));
    _mm256_storeu_ps(gate + i, _mm256_andnot_ps(saturated, one));
  }
  scalar::fake_quant(out + i, gate + i, in + i, inv_step, step, lo, hi,
                     n - i);
}

// ---- int8 integer path: exact integer arithmetic, bit-identical to the
// scalar oracle on every input (dispatch.h). ---------------------------------

// Int8 register-tile kernel, MR=4, NR=16, int32 accumulators. Per k-pair:
// the 32-byte B block is two vpmovsxbw widenings, one A row pair is a
// single 32-bit broadcast straight from the int16 panel, and vpmaddwd
// computes a0·b0 + a1·b1 for eight columns at once — exact int32, never
// saturating (|a·b| ≤ 2¹⁴ per term, one pair per madd). Integer addition
// is associative, so the pair-at-a-time order matches the scalar oracle
// bit for bit; zero pairs contribute exact zeros (no branch needed).
void int8_4x16_avx2(Index kpairs, const std::int16_t* __restrict ap,
                    const std::int8_t* __restrict bp,
                    const std::int32_t* __restrict klist, Index nk,
                    std::int32_t* c, Index ldc, Index mv, Index nv) {
  __m256i acc00 = _mm256_setzero_si256(), acc01 = acc00;  // row 0: cols 0-7/8-15
  __m256i acc10 = acc00, acc11 = acc00;
  __m256i acc20 = acc00, acc21 = acc00;
  __m256i acc30 = acc00, acc31 = acc00;
  const std::int32_t* ap32 = reinterpret_cast<const std::int32_t*>(ap);
  auto step = [&](Index p) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p * 32));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(b));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(b, 1));
    const std::int32_t* a = ap32 + p * 4;
    const __m256i a0 = _mm256_set1_epi32(a[0]);
    acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(a0, blo));
    acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(a0, bhi));
    const __m256i a1 = _mm256_set1_epi32(a[1]);
    acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(a1, blo));
    acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(a1, bhi));
    const __m256i a2 = _mm256_set1_epi32(a[2]);
    acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(a2, blo));
    acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(a2, bhi));
    const __m256i a3 = _mm256_set1_epi32(a[3]);
    acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(a3, blo));
    acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(a3, bhi));
  };
  if (klist == nullptr) {
    for (Index p = 0; p < kpairs; ++p) step(p);
  } else {
    for (Index t = 0; t < nk; ++t) step(klist[t]);
  }
  if (mv == 4 && nv == 16) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 0), acc00);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 0 * ldc + 8), acc01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 0), acc10);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 1 * ldc + 8), acc11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 0), acc20);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 2 * ldc + 8), acc21);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 0), acc30);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + 3 * ldc + 8), acc31);
  } else {
    alignas(32) std::int32_t tile[4][16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 0), acc00);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[0] + 8), acc01);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 0), acc10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[1] + 8), acc11);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 0), acc20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[2] + 8), acc21);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 0), acc30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile[3] + 8), acc31);
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = tile[i][j];
    }
  }
}

// Float → int8 code quantisation. Clamp to the exactly-representable value
// bounds first, scale by the power-of-two inv_step (exact), then
// vcvtps2dq — round-half-even in the default FP environment, the same real
// rounded to the same integer as the scalar std::nearbyint. The pack
// instructions saturate, but the values are already inside [-128, 127], so
// saturation never fires.
void quant_i8_avx2(std::int8_t* d, const float* s, float inv_step, float lo,
                   float hi, Index n) {
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  const __m256 inv = _mm256_set1_ps(inv_step);
  Index i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 v0 =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(s + i), lov), hiv);
    const __m256 v1 =
        _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(s + i + 8), lov), hiv);
    const __m256i i0 = _mm256_cvtps_epi32(_mm256_mul_ps(v0, inv));
    const __m256i i1 = _mm256_cvtps_epi32(_mm256_mul_ps(v1, inv));
    // packs interleaves 128-bit lanes; permute restores element order.
    const __m256i p16 = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(i0, i1), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                       _mm256_extracti128_si256(p16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), p8);
  }
  scalar::quant_i8(d + i, s + i, inv_step, lo, hi, n - i);
}

// Vectorized round-half-even right shift + saturate + exact int→float
// scale (dispatch.h). Shared by both bias layouts.
inline __m256i requant8_avx2(__m256i v, __m128i shiftv, int shift,
                             __m256i half, __m256i one, __m256i lov,
                             __m256i hiv) {
  __m256i q;
  if (shift == 0) {
    q = v;
  } else {
    q = _mm256_sra_epi32(v, shiftv);
    const __m256i rem = _mm256_sub_epi32(v, _mm256_sll_epi32(q, shiftv));
    const __m256i gt = _mm256_cmpgt_epi32(rem, half);
    const __m256i eq = _mm256_cmpeq_epi32(rem, half);
    const __m256i odd =
        _mm256_cmpeq_epi32(_mm256_and_si256(q, one), one);
    const __m256i inc = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
    q = _mm256_sub_epi32(q, inc);  // inc lanes are -1 where we round up
  }
  q = _mm256_max_epi32(q, lov);
  q = _mm256_min_epi32(q, hiv);
  return q;
}

void requant_col_bias_avx2(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols) {
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m256i half =
      _mm256_set1_epi32(shift == 0 ? 0 : std::int32_t{1} << (shift - 1));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  const __m256 sc = _mm256_set1_ps(scale);
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * cols;
    float* yrow = y + r * cols;
    Index j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i v = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + j)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + j)));
      const __m256i q = requant8_avx2(v, shiftv, shift, half, one, lov, hiv);
      _mm256_storeu_ps(yrow + j, _mm256_mul_ps(_mm256_cvtepi32_ps(q), sc));
    }
    scalar::requant_col_bias(yrow + j, arow + j, bias + j, shift, lo, hi,
                             scale, 1, cols - j);
  }
}

void requant_row_bias_avx2(float* y, const std::int32_t* acc,
                           const std::int32_t* bias, int shift,
                           std::int32_t lo, std::int32_t hi, float scale,
                           Index rows, Index cols) {
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m256i half =
      _mm256_set1_epi32(shift == 0 ? 0 : std::int32_t{1} << (shift - 1));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  const __m256 sc = _mm256_set1_ps(scale);
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t* arow = acc + r * cols;
    float* yrow = y + r * cols;
    const __m256i bv = _mm256_set1_epi32(bias[r]);
    Index j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i v = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + j)), bv);
      const __m256i q = requant8_avx2(v, shiftv, shift, half, one, lov, hiv);
      _mm256_storeu_ps(yrow + j, _mm256_mul_ps(_mm256_cvtepi32_ps(q), sc));
    }
    scalar::requant_row_bias(yrow + j, arow + j, bias + r, shift, lo, hi,
                             scale, 1, cols - j);
  }
}

// The panel-pack row scatter: one 8-float load/store plus a NEQ mask per
// strip column. _CMP_NEQ_UQ (unordered) makes NaN lanes count as nonzero,
// matching the scalar `!= 0.0f` test.
void pack_row8_avx2(float* panel, const float* src, Index jn, Index depth,
                    Index k, char* flags) {
  const __m256 zero = _mm256_setzero_ps();
  const Index full = jn / 8;
  for (Index s = 0; s < full; ++s) {
    const __m256 v = _mm256_loadu_ps(src + s * 8);
    _mm256_storeu_ps(panel + (s * depth + k) * 8, v);
    flags[s * depth + k] =
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)) != 0;
  }
  const Index c0 = full * 8;
  if (c0 < jn) {
    float* dst = panel + (full * depth + k) * 8;
    char nz = 0;
    for (Index t = 0; t < jn - c0; ++t) {
      dst[t] = src[c0 + t];
      nz |= (dst[t] != 0.0f);
    }
    flags[full * depth + k] = nz;
  }
}

// conlint:hotpath end

}  // namespace

const KernelTable* avx2_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::kAvx2;
    // Re-tuned crossover (the scalar table uses 1<<15): the 8-wide tile
    // amortises pack+dispatch ~4× sooner, measured at square shapes on AVX2
    // hosts. Both sides of the crossover give the same bits.
    k.small_gemm_flops = 1 << 13;
    k.nn_4x8 = &nn_4x8_avx2;
    k.nt_4x8 = &nt_4x8_avx2;
    k.nt_pack_a = &nt_pack_a_avx2;
    k.nt_pack_b = &nt_pack_b_avx2;
    k.axpy = &axpy_avx2;
    k.axpy_out = &axpy_out_avx2;
    k.add = &add_avx2;
    k.sub = &sub_avx2;
    k.mul = &mul_avx2;
    k.scale = &scale_avx2;
    k.clamp = &clamp_avx2;
    k.relu = &relu_avx2;
    k.sign = &sign_avx2;
    k.relu_bwd = &relu_bwd_avx2;
    k.fake_quant = &fake_quant_avx2;
    k.pack_row = &pack_row8_avx2;
    k.int8_4x16 = &int8_4x16_avx2;
    k.quant_i8 = &quant_i8_avx2;
    k.requant_col_bias = &requant_col_bias_avx2;
    k.requant_row_bias = &requant_row_bias_avx2;
    return k;
  }();
  return &t;
}

}  // namespace con::tensor::kernels

#else  // non-x86 build: the probe never offers AVX2.

namespace con::tensor::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace con::tensor::kernels

#endif
