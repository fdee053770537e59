// The scalar micro-kernels: the reference every AVX2 table entry must match
// bit for bit, and the table hosts without AVX2+FMA run.
//
// These are the exact loops tensor/gemm.cpp and tensor/ops.cpp ran before
// the dispatch layer existed — moved here verbatim so the scalar table
// entry, the AVX2 TU's remainder handling, and the oracle tests all share
// one definition — plus the NT tile and its packers, which run
// gemm::reference_nt's per-element double sum over K blocks with no skip
// lists. Keep the operation sequences byte-for-byte: one accumulator per
// output element fed the full k range in ascending order, no
// reassociation, no FMA of float terms (DESIGN.md §5). The vector kernels
// copy these sequences per lane; changing one here changes what they must
// match.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/tensor.h"

namespace con::tensor::kernels::scalar {

// The float register-tile micro-kernel (gemm.h): one 4×8 accumulator
// tile, full depth per output element, k ascending — the pre-blocking
// scalar loops' exact operation sequence. `klist == nullptr` runs the
// dense loop; otherwise only the listed k are visited, and rows whose A
// value is zero are skipped too — every elided term has a zero factor.
// Writes the mv×nv valid corner of the tile to C.
// conlint:hotpath begin
inline void nn_4x8(Index depth, const float* __restrict ap,
                   const float* __restrict bp,
                   const std::int32_t* __restrict klist, Index nk,
                   float* __restrict c, Index ldc, Index mv, Index nv) {
  float acc[4][8] = {};
  if (klist == nullptr) {
    for (Index k = 0; k < depth; ++k) {
      const float* __restrict av = ap + k * 4;
      const float* __restrict bv = bp + k * 8;
      for (int i = 0; i < 4; ++i) {
        const float a = av[i];
        for (int j = 0; j < 8; ++j) acc[i][j] += a * bv[j];
      }
    }
  } else {
    for (Index t = 0; t < nk; ++t) {
      const Index k = klist[t];
      const float* __restrict av = ap + k * 4;
      const float* __restrict bv = bp + k * 8;
      for (int i = 0; i < 4; ++i) {
        const float a = av[i];
        if (a == 0.0f) continue;  // pruned row within a live strip column
        for (int j = 0; j < 8; ++j) acc[i][j] += a * bv[j];
      }
    }
  }
  if (mv == 4 && nv == 8) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 8; ++j) c[i * ldc + j] = acc[i][j];
    }
  } else {
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = acc[i][j];
    }
  }
}

// The NT tile (dispatch.h NtTileFn): reference_nt's per-element sum,
// `acc += double(a) * double(b)` for every k in ascending order, nothing
// skipped, resumed from and saved to the caller's double tile. The
// product of two floats is exact in double, so any ISA that adds the same
// products in the same order — fused or not — gets these bits.
inline void nt_4x8(Index kn, const double* __restrict ap,
                   const double* __restrict bp, Index ldb,
                   double* __restrict acc, Index nv) {
  double t[8][4];
  for (Index j = 0; j < nv; ++j) {
    for (int i = 0; i < 4; ++i) t[j][i] = acc[j * 4 + i];
  }
  for (Index k = 0; k < kn; ++k) {
    const double* __restrict av = ap + k * 4;
    for (Index j = 0; j < nv; ++j) {
      const double b = bp[j * ldb + k];
      for (int i = 0; i < 4; ++i) t[j][i] += av[i] * b;
    }
  }
  for (Index j = 0; j < nv; ++j) {
    for (int i = 0; i < 4; ++i) acc[j * 4 + i] = t[j][i];
  }
}

// The NT tile's B rows (dispatch.h NtPackBFn).
inline void nt_pack_b(const float* __restrict b, Index ldb, Index nv,
                      Index kc, double* __restrict dst) {
  for (Index j = 0; j < nv; ++j) {
    for (Index k = 0; k < kc; ++k) dst[j * kc + k] = b[j * ldb + k];
  }
}

// The NT tile's A strip (dispatch.h NtPackAFn).
inline void nt_pack_a(const float* __restrict a, Index lda, Index mv,
                      Index kc, double* __restrict dst) {
  for (Index i = 0; i < 4; ++i) {
    if (i < mv) {
      const float* src = a + i * lda;
      for (Index k = 0; k < kc; ++k) dst[k * 4 + i] = src[k];
    } else {
      for (Index k = 0; k < kc; ++k) dst[k * 4 + i] = 0.0;
    }
  }
}
// conlint:hotpath end

// ---- int8 integer path (the bit-exact oracle for every ISA) -----------------
// Integer arithmetic end to end: the SIMD variants reorder freely (integer
// addition is associative) and still match these loops bit for bit. See
// dispatch.h for the layouts and compress/integer_exec.cpp for the int64
// reference these agree with whenever the int32 accumulator cannot
// overflow (K·2¹⁴ + |bias| < 2³¹, validated at lowering).

// Round-half-even arithmetic right shift — the int32 twin of
// compress::integer_exec's rshift_round_half_even. shift must be > 0 when
// called from the loop below (the 0 case is handled by the caller).
inline std::int32_t rshift_rne_i32(std::int32_t v, int shift) {
  const std::int32_t q = v >> shift;  // arithmetic shift: floor division
  const std::int32_t r = v - (q << shift);
  const std::int32_t half = std::int32_t{1} << (shift - 1);
  if (r > half || (r == half && (q & 1))) return q + 1;
  return q;
}

// conlint:hotpath begin
inline void int8_4x16(Index kpairs, const std::int16_t* __restrict ap,
                      const std::int8_t* __restrict bp,
                      const std::int32_t* __restrict klist, Index nk,
                      std::int32_t* __restrict c, Index ldc, Index mv,
                      Index nv) {
  std::int32_t acc[4][16] = {};
  const Index np = klist == nullptr ? kpairs : nk;
  for (Index t = 0; t < np; ++t) {
    const Index p = klist == nullptr ? t : klist[t];
    const std::int16_t* __restrict av = ap + p * 8;
    const std::int8_t* __restrict bv = bp + p * 32;
    for (int i = 0; i < 4; ++i) {
      const std::int32_t a0 = av[i * 2 + 0];
      const std::int32_t a1 = av[i * 2 + 1];
      if ((a0 | a1) == 0) continue;  // pruned row within a live strip pair
      for (int j = 0; j < 16; ++j) {
        acc[i][j] += a0 * bv[j * 2 + 0] + a1 * bv[j * 2 + 1];
      }
    }
  }
  if (mv == 4 && nv == 16) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 16; ++j) c[i * ldc + j] = acc[i][j];
    }
  } else {
    for (Index i = 0; i < mv; ++i) {
      for (Index j = 0; j < nv; ++j) c[i * ldc + j] = acc[i][j];
    }
  }
}

inline void quant_i8(std::int8_t* __restrict d, const float* __restrict s,
                     float inv_step, float lo, float hi, Index n) {
  for (Index i = 0; i < n; ++i) {
    const float v = std::min(hi, std::max(lo, s[i]));
    d[i] = static_cast<std::int8_t>(
        static_cast<std::int32_t>(std::nearbyint(v * inv_step)));
  }
}

inline void requant_col_bias(float* __restrict y,
                             const std::int32_t* __restrict acc,
                             const std::int32_t* __restrict bias, int shift,
                             std::int32_t lo, std::int32_t hi, float scale,
                             Index rows, Index cols) {
  for (Index r = 0; r < rows; ++r) {
    for (Index j = 0; j < cols; ++j) {
      const std::int32_t v = acc[r * cols + j] + bias[j];
      std::int32_t q = shift == 0 ? v : rshift_rne_i32(v, shift);
      if (q < lo) q = lo;
      if (q > hi) q = hi;
      y[r * cols + j] = static_cast<float>(q) * scale;
    }
  }
}

inline void requant_row_bias(float* __restrict y,
                             const std::int32_t* __restrict acc,
                             const std::int32_t* __restrict bias, int shift,
                             std::int32_t lo, std::int32_t hi, float scale,
                             Index rows, Index cols) {
  for (Index r = 0; r < rows; ++r) {
    const std::int32_t b = bias[r];
    for (Index j = 0; j < cols; ++j) {
      const std::int32_t v = acc[r * cols + j] + b;
      std::int32_t q = shift == 0 ? v : rshift_rne_i32(v, shift);
      if (q < lo) q = lo;
      if (q > hi) q = hi;
      y[r * cols + j] = static_cast<float>(q) * scale;
    }
  }
}
// conlint:hotpath end

// ---- elementwise (the exact tensor/ops.cpp loops) ---------------------------

inline void axpy(float* d, const float* s, float a,
                 Index n) {
  for (Index i = 0; i < n; ++i) d[i] += a * s[i];
}

inline void axpy_out(float* d, const float* a,
                     const float* b, float s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = a[i] + s * b[i];
}

inline void add(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] += s[i];
}

inline void sub(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] -= s[i];
}

inline void mul(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] *= s[i];
}

inline void scale(float* d, float s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] *= s;
}

inline void clamp(float* d, float lo, float hi, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = std::min(hi, std::max(lo, d[i]));
}

inline void relu(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) d[i] = s[i] > 0.0f ? s[i] : 0.0f;
}

inline void sign(float* d, const float* s, Index n) {
  for (Index i = 0; i < n; ++i) {
    d[i] = (s[i] > 0.0f) ? 1.0f : (s[i] < 0.0f ? -1.0f : 0.0f);
  }
}

inline void relu_bwd(float* g, const float* in,
                     Index n) {
  for (Index i = 0; i < n; ++i) {
    if (in[i] <= 0.0f) g[i] = 0.0f;
  }
}

// Fixed-point fake-quantisation (dispatch.h FakeQuantFn). `x * inv_step`
// rounds the same real number as `x / step` (step is a power of two). The
// `if` chain, not std::clamp, is the contract: a NaN q passes through with
// gate 1.
inline void fake_quant(float* out, float* gate, const float* in,
                       float inv_step, float step, float lo, float hi,
                       Index n) {
  for (Index i = 0; i < n; ++i) {
    float q = std::nearbyint(in[i] * inv_step) * step;
    const bool saturated = q < lo || q > hi;
    if (q < lo) q = lo;
    if (q > hi) q = hi;
    out[i] = q;
    gate[i] = saturated ? 0.0f : 1.0f;
  }
}

// The panel-packing inner row scatter (gemm.cpp pack_panel, k-major path):
// the exact copy-and-flag loops the packer always ran.
inline void pack_row8(float* panel, const float* src, Index jn, Index depth,
                      Index k, char* flags) {
  const Index ns = (jn + 7) / 8;
  for (Index s = 0; s < ns; ++s) {
    const Index c0 = s * 8;
    const Index cl = jn - c0 < 8 ? jn - c0 : Index(8);
    float* dst = panel + (s * depth + k) * 8;
    char nz = 0;
    for (Index t = 0; t < cl; ++t) {
      dst[t] = src[c0 + t];
      nz |= (dst[t] != 0.0f);
    }
    flags[s * depth + k] = nz;
  }
}

}  // namespace con::tensor::kernels::scalar
