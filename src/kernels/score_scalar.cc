// Scalar (portable) scoring kernels: the bitwise reference every SIMD
// level must reproduce. Eight independent stride-8 accumulator lanes per
// row break the FP-add latency chain; the pairwise lane fold and the
// sequential tail define the summation order the AVX2/AVX-512 TUs mirror
// vector-lane-for-scalar-lane. Compiled with -ffp-contract=off (see
// CMakeLists.txt) so no -march variant can fuse mul+add into an FMA and
// silently change the reference rounding.
//
// Each kernel is one template over the weight type W (double or int8_t).
// An int8 weight is widened to double at its use (exact: every int8 is
// representable); no double copy of the model is ever materialized.
#include "kernels/score_kernels.h"

namespace dw::kernels {

using matrix::Index;

namespace {

template <typename W>
double DenseBlockDotScalar(const double* v, const W* m, Index lo, Index hi) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  Index j = lo;
  for (; j + 8 <= hi; j += 8) {
    l0 += v[j] * static_cast<double>(m[j]);
    l1 += v[j + 1] * static_cast<double>(m[j + 1]);
    l2 += v[j + 2] * static_cast<double>(m[j + 2]);
    l3 += v[j + 3] * static_cast<double>(m[j + 3]);
    l4 += v[j + 4] * static_cast<double>(m[j + 4]);
    l5 += v[j + 5] * static_cast<double>(m[j + 5]);
    l6 += v[j + 6] * static_cast<double>(m[j + 6]);
    l7 += v[j + 7] * static_cast<double>(m[j + 7]);
  }
  double tail = 0.0;
  for (; j < hi; ++j) tail += v[j] * static_cast<double>(m[j]);
  return (((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7))) + tail;
}

// Rows are independent, so scoring the 4-row tile one row at a time is
// bitwise-identical to any interleaving of the same per-row arithmetic.
// The model slice is cache-resident across the four passes (that is what
// the column blocking in score_batch.cc is for); the SIMD levels
// additionally share each model LOAD across the four rows.
template <typename W>
void Dense4BlockDotScalar(const double* const* v4, const W* m, Index lo,
                          Index hi, double* acc4) {
  for (int r = 0; r < 4; ++r) {
    acc4[r] += DenseBlockDotScalar(v4[r], m, lo, hi);
  }
}

}  // namespace

template <typename W>
double SparseBlockAccScalar(double acc, const Index* indices,
                            const double* values, size_t* cursor, size_t nnz,
                            const W* m, Index hi) {
  size_t k = *cursor;
  while (k < nnz && indices[k] < hi) {
    acc += values[k] * static_cast<double>(m[indices[k]]);
    ++k;
  }
  *cursor = k;
  return acc;
}

// kAvx2Ops links against this instantiation (score_kernels.h).
template double SparseBlockAccScalar(double, const Index*, const double*,
                                     size_t*, size_t, const int8_t*, Index);

const KernelOps kScalarOps = {
    DenseBlockDotScalar<double>, Dense4BlockDotScalar<double>,
    SparseBlockAccScalar<double>, DenseBlockDotScalar<int8_t>,
    Dense4BlockDotScalar<int8_t>, SparseBlockAccScalar<int8_t>,
};

}  // namespace dw::kernels
