// AVX-512 scoring kernels. target("avx512f") on every function keeps the
// EVEX code confined to this TU; the dispatcher guards every call with
// CPUID (avx512f).
//
// Bitwise contract: one 512-bit accumulator per row holds the scalar
// reference's eight stride-8 lanes directly. The fold adds the upper
// 256-bit half onto the lower (l_k + l_{k+4} -- the scalar fold's first
// pairing) and finishes with the same (s0+s1)+(s2+s3) + tail. Multiply
// and add stay separate instructions (-ffp-contract=off, no FMA
// intrinsics): AVX-512F *would* otherwise let the compiler contract them
// into vfmadd and silently change the rounding.
#include "kernels/score_kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstring>

#define DW_TARGET_AVX512 __attribute__((target("avx512f")))

namespace dw::kernels {

using matrix::Index;

namespace {

DW_TARGET_AVX512 inline double FoldLanes512(__m512d acc) {
  const __m256d low = _mm512_castpd512_pd256(acc);
  const __m256d high = _mm512_extractf64x4_pd(acc, 1);
  alignas(32) double s[4];
  _mm256_store_pd(s, _mm256_add_pd(low, high));
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// The eight weights at m as doubles: a plain load for f64, and for int8
/// an 8-byte load widened in-register (exact). The weight type picks the
/// overload at compile time.
DW_TARGET_AVX512 inline __m512d Load8(const double* m) {
  return _mm512_loadu_pd(m);
}

DW_TARGET_AVX512 inline __m512d Load8(const int8_t* q) {
  long long packed;
  std::memcpy(&packed, q, sizeof(packed));
  return _mm512_cvtepi32_pd(
      _mm256_cvtepi8_epi32(_mm_cvtsi64_si128(packed)));
}

template <typename W>
DW_TARGET_AVX512 double DenseBlockDotAvx512(const double* v, const W* m,
                                            Index lo, Index hi) {
  __m512d acc = _mm512_setzero_pd();
  Index j = lo;
  for (; j + 8 <= hi; j += 8) {
    acc = _mm512_add_pd(acc,
                        _mm512_mul_pd(_mm512_loadu_pd(v + j), Load8(m + j)));
  }
  const double folded = FoldLanes512(acc);
  double tail = 0.0;
  for (; j < hi; ++j) tail += v[j] * static_cast<double>(m[j]);
  return folded + tail;
}

/// Four rows per tile sharing one model load (for int8: one 8-byte load +
/// widen) per iteration.
template <typename W>
DW_TARGET_AVX512 void Dense4BlockDotAvx512(const double* const* v4,
                                           const W* m, Index lo, Index hi,
                                           double* acc4) {
  __m512d a0 = _mm512_setzero_pd();
  __m512d a1 = _mm512_setzero_pd();
  __m512d a2 = _mm512_setzero_pd();
  __m512d a3 = _mm512_setzero_pd();
  Index j = lo;
  for (; j + 8 <= hi; j += 8) {
    const __m512d mv = Load8(m + j);
    a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_loadu_pd(v4[0] + j), mv));
    a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_loadu_pd(v4[1] + j), mv));
    a2 = _mm512_add_pd(a2, _mm512_mul_pd(_mm512_loadu_pd(v4[2] + j), mv));
    a3 = _mm512_add_pd(a3, _mm512_mul_pd(_mm512_loadu_pd(v4[3] + j), mv));
  }
  const __m512d acc[4] = {a0, a1, a2, a3};
  for (int r = 0; r < 4; ++r) {
    const double folded = FoldLanes512(acc[r]);
    double tail = 0.0;
    for (Index t = j; t < hi; ++t) tail += v4[r][t] * static_cast<double>(m[t]);
    acc4[r] += folded + tail;
  }
}

DW_TARGET_AVX512 double SparseBlockAccAvx512(double acc, const Index* indices,
                                             const double* values,
                                             size_t* cursor, size_t nnz,
                                             const double* m, Index hi) {
  size_t k = *cursor;
  // 8-wide gather step when the next 8 indices all land in this block
  // (strictly increasing indices: checking the last suffices). Products
  // are vectorized; the eight adds stay strictly left-to-right, so the
  // fold matches the scalar reference bitwise. The prefetches cover the
  // NEXT iteration's gather targets -- random model lines the hardware
  // prefetcher cannot predict.
  while (k + 8 <= nnz && indices[k + 7] < hi) {
    if (k + 16 <= nnz) {
      _mm_prefetch(reinterpret_cast<const char*>(m + indices[k + 8]),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(m + indices[k + 11]),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(m + indices[k + 15]),
                   _MM_HINT_T0);
    }
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(indices + k));
    // Masked form with an all-ones mask: the plain gather's undefined
    // source value trips GCC's -Wmaybe-uninitialized.
    const __m512d gathered = _mm512_mask_i32gather_pd(
        _mm512_setzero_pd(), static_cast<__mmask8>(0xff), idx, m, 8);
    alignas(64) double prod[8];
    _mm512_store_pd(prod, _mm512_mul_pd(_mm512_loadu_pd(values + k),
                                        gathered));
    for (int t = 0; t < 8; ++t) acc += prod[t];
    k += 8;
  }
  while (k < nnz && indices[k] < hi) {
    acc += values[k] * m[indices[k]];
    ++k;
  }
  *cursor = k;
  return acc;
}

// No byte gather exists; scalar fold with prefetch of upcoming targets.
double SparseBlockAccI8Avx512(double acc, const Index* indices,
                              const double* values, size_t* cursor,
                              size_t nnz, const int8_t* m, Index hi) {
  size_t k = *cursor;
  while (k < nnz && indices[k] < hi) {
    if (k + 8 < nnz) {
      __builtin_prefetch(m + indices[k + 8], 0, 3);
    }
    acc += values[k] * static_cast<double>(m[indices[k]]);
    ++k;
  }
  *cursor = k;
  return acc;
}

}  // namespace

const KernelOps kAvx512Ops = {
    DenseBlockDotAvx512<double>, Dense4BlockDotAvx512<double>,
    SparseBlockAccAvx512, DenseBlockDotAvx512<int8_t>,
    Dense4BlockDotAvx512<int8_t>, SparseBlockAccI8Avx512,
};

}  // namespace dw::kernels

#else  // non-x86 or non-GNU toolchain

namespace dw::kernels {

// Unreachable: LevelSupported(kAvx512) is false here and OpsFor() CHECKs.
const KernelOps kAvx512Ops = {};

}  // namespace dw::kernels

#endif
