// AVX2 scoring kernels. Every function carries target("avx2") so ONLY
// this translation unit emits VEX-256 code -- the rest of the binary
// stays plain x86-64 and the dispatcher guards every call with CPUID.
//
// Bitwise contract: each 256-bit accumulator pair maps vector lanes onto
// the scalar reference's eight stride-8 lanes (accA = lanes 0-3, accB =
// lanes 4-7). accA+accB yields exactly the scalar fold's first pairing
// (l_k + l_{k+4}); multiply and add stay separate instructions
// (-ffp-contract=off, no FMA intrinsics), so every intermediate rounds
// exactly like the scalar TU and the results are bit-identical.
#include "kernels/score_kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstring>

#define DW_TARGET_AVX2 __attribute__((target("avx2")))

namespace dw::kernels {

using matrix::Index;

namespace {

/// (s0+s1)+(s2+s3) over s = accA + accB: completes the scalar lane fold
/// (((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))).
DW_TARGET_AVX2 inline double FoldLanes(__m256d accA, __m256d accB) {
  alignas(32) double s[4];
  _mm256_store_pd(s, _mm256_add_pd(accA, accB));
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// The four weights at m as doubles: a plain load for f64, and for int8
/// a 4-byte load widened in-register (exact). The weight type picks the
/// overload at compile time.
DW_TARGET_AVX2 inline __m256d Load4(const double* m) {
  return _mm256_loadu_pd(m);
}

DW_TARGET_AVX2 inline __m256d Load4(const int8_t* q) {
  int packed;
  std::memcpy(&packed, q, sizeof(packed));
  return _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed)));
}

template <typename W>
DW_TARGET_AVX2 double DenseBlockDotAvx2(const double* v, const W* m, Index lo,
                                        Index hi) {
  __m256d accA = _mm256_setzero_pd();
  __m256d accB = _mm256_setzero_pd();
  Index j = lo;
  for (; j + 8 <= hi; j += 8) {
    accA = _mm256_add_pd(
        accA, _mm256_mul_pd(_mm256_loadu_pd(v + j), Load4(m + j)));
    accB = _mm256_add_pd(
        accB, _mm256_mul_pd(_mm256_loadu_pd(v + j + 4), Load4(m + j + 4)));
  }
  const double folded = FoldLanes(accA, accB);
  double tail = 0.0;
  for (; j < hi; ++j) tail += v[j] * static_cast<double>(m[j]);
  return folded + tail;
}

/// Four rows per tile: the two model loads per iteration are shared by
/// all four rows (the 4x model-traffic cut; an int8 replica also moves
/// 1/8 the bytes of the f64 one), eight live accumulators.
template <typename W>
DW_TARGET_AVX2 void Dense4BlockDotAvx2(const double* const* v4, const W* m,
                                       Index lo, Index hi, double* acc4) {
  __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
  Index j = lo;
  for (; j + 8 <= hi; j += 8) {
    const __m256d mA = Load4(m + j);
    const __m256d mB = Load4(m + j + 4);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(v4[0] + j), mA));
    b0 = _mm256_add_pd(b0, _mm256_mul_pd(_mm256_loadu_pd(v4[0] + j + 4), mB));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(v4[1] + j), mA));
    b1 = _mm256_add_pd(b1, _mm256_mul_pd(_mm256_loadu_pd(v4[1] + j + 4), mB));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(v4[2] + j), mA));
    b2 = _mm256_add_pd(b2, _mm256_mul_pd(_mm256_loadu_pd(v4[2] + j + 4), mB));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(v4[3] + j), mA));
    b3 = _mm256_add_pd(b3, _mm256_mul_pd(_mm256_loadu_pd(v4[3] + j + 4), mB));
  }
  const __m256d accA[4] = {a0, a1, a2, a3};
  const __m256d accB[4] = {b0, b1, b2, b3};
  for (int r = 0; r < 4; ++r) {
    const double folded = FoldLanes(accA[r], accB[r]);
    double tail = 0.0;
    for (Index t = j; t < hi; ++t) tail += v4[r][t] * static_cast<double>(m[t]);
    acc4[r] += folded + tail;
  }
}

DW_TARGET_AVX2 double SparseBlockAccAvx2(double acc, const Index* indices,
                                         const double* values, size_t* cursor,
                                         size_t nnz, const double* m,
                                         Index hi) {
  size_t k = *cursor;
  // Vector step whenever the next 4 indices all land in this block
  // (indices strictly increase, so checking the last one suffices). The
  // gather vectorizes only the independent products; the four adds stay
  // strictly left-to-right, preserving the scalar fold bitwise.
  while (k + 4 <= nnz && indices[k + 3] < hi) {
    if (k + 8 <= nnz) {
      _mm_prefetch(reinterpret_cast<const char*>(m + indices[k + 4]),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(m + indices[k + 7]),
                   _MM_HINT_T0);
    }
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(indices + k));
    // Masked form with an all-ones mask: the plain gather's
    // _mm256_undefined_pd() source trips GCC's -Wmaybe-uninitialized.
    const __m256d ones_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(int64_t{-1}));
    const __m256d gathered =
        _mm256_mask_i32gather_pd(_mm256_setzero_pd(), m, idx, ones_mask, 8);
    alignas(32) double prod[4];
    _mm256_store_pd(prod, _mm256_mul_pd(_mm256_loadu_pd(values + k),
                                        gathered));
    acc += prod[0];
    acc += prod[1];
    acc += prod[2];
    acc += prod[3];
    k += 4;
  }
  while (k < nnz && indices[k] < hi) {
    acc += values[k] * m[indices[k]];
    ++k;
  }
  *cursor = k;
  return acc;
}

}  // namespace

// No byte gather exists, so the int8 sparse fold is the scalar TU's (the
// model bytes it moves are already 1/8 of the f64 path's).
const KernelOps kAvx2Ops = {
    DenseBlockDotAvx2<double>, Dense4BlockDotAvx2<double>, SparseBlockAccAvx2,
    DenseBlockDotAvx2<int8_t>, Dense4BlockDotAvx2<int8_t>,
    SparseBlockAccScalar<int8_t>,
};

}  // namespace dw::kernels

#else  // non-x86 or non-GNU toolchain

namespace dw::kernels {

// Unreachable: LevelSupported(kAvx2) is false here and OpsFor() CHECKs.
// The empty table only satisfies the linker.
const KernelOps kAvx2Ops = {};

}  // namespace dw::kernels

#endif
