// The per-ISA scoring kernel table and the blocked batch driver.
//
// One KernelOps table exists per KernelLevel (score_scalar.cc,
// score_avx2.cc, score_avx512.cc -- each SIMD level lives in its own
// translation unit with per-function target attributes, so no other code
// in the binary is ever compiled with AVX enabled and the scalar build
// stays runnable on any x86-64). The driver (ScoreBatchMargins /
// ScoreBatchMarginsInt8 in score_batch.cc) owns row classification and
// cache blocking and calls through the table for the inner loops.
//
// Bitwise contract of the float kernels: every level computes, per row
// and per model block [lo, hi), the SAME eight stride-8 accumulator
// lanes
//
//   lane k = sum of v[j]*m[j] over j in {lo+k, lo+k+8, ...}, j < hi8
//
// folded as (((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))) + sequential tail,
// with multiply-then-add only (FMA is never emitted: its single rounding
// would diverge from the scalar reference). Sparse rows fold strictly
// left-to-right into the running accumulator at every level; SIMD only
// vectorizes the independent products (via model gather) and prefetches
// upcoming gather targets. Hence PredictBatch output is bitwise
// identical across scalar/avx2/avx512 -- the property the dispatch
// matrix in CI pins per commit.
//
// Each ISA file writes its dense, 4-row dense and sparse kernel once, as
// a template over the weight type (double or int8_t). Per level, the only
// int8-specific code is the load that widens int8 weights in-register
// (never materialized as a double copy: the whole point is moving 1 byte
// per weight instead of 8), plus AVX-512's prefetching int8 sparse fold
// (no byte gather exists). An int8 kernel is thus the f64 kernel on the
// widened weights, bitwise; its accuracy contract against the FLOAT score
// is the quantization bound documented at QuantizeWeights.
#pragma once

#include <cstddef>
#include <cstdint>

#include "matrix/sparse_vector.h"

namespace dw::kernels {

enum class KernelLevel : int;

/// Inner-loop kernel table for one ISA level. `lo`/`hi` bound the model
/// block; dense row values are full vectors indexed absolutely by j.
struct KernelOps {
  /// Returns the 8-lane dense dot of v against m over [lo, hi).
  double (*dense_block_dot)(const double* v, const double* m,
                            matrix::Index lo, matrix::Index hi);
  /// Four dense rows against one model slice; acc4[r] += dot(v4[r], ...).
  /// Per-row arithmetic identical to dense_block_dot; the tile exists so
  /// each model element is loaded once per four rows.
  void (*dense4_block_dot)(const double* const* v4, const double* m,
                           matrix::Index lo, matrix::Index hi, double* acc4);
  /// Continues a sparse row's strict left-to-right fold: starting at
  /// *cursor, folds values[k]*m[indices[k]] into acc while
  /// indices[k] < hi (indices strictly increasing), advances *cursor,
  /// returns the new accumulator.
  double (*sparse_block_acc)(double acc, const matrix::Index* indices,
                             const double* values, size_t* cursor, size_t nnz,
                             const double* m, matrix::Index hi);
  /// The same three kernels over int8 weights widened to double in
  /// register. Accumulators are UNSCALED (sum v*q); the driver applies
  /// the dequantization scale once per row.
  double (*dense_block_dot_i8)(const double* v, const int8_t* m,
                               matrix::Index lo, matrix::Index hi);
  void (*dense4_block_dot_i8)(const double* const* v4, const int8_t* m,
                              matrix::Index lo, matrix::Index hi,
                              double* acc4);
  double (*sparse_block_acc_i8)(double acc, const matrix::Index* indices,
                                const double* values, size_t* cursor,
                                size_t nnz, const int8_t* m,
                                matrix::Index hi);
};

/// Table for an explicit level. CHECK-fails if the host cannot run it.
const KernelOps& OpsFor(KernelLevel level);

/// Table for ActiveKernelLevel() (the hot-path entry).
const KernelOps& ActiveOps();

// Per-level tables, defined in their own TUs. scalar is always safe to
// call; the avx tables must only be called when LevelSupported() says so.
extern const KernelOps kScalarOps;
extern const KernelOps kAvx2Ops;
extern const KernelOps kAvx512Ops;

/// The scalar sparse fold (score_scalar.cc). Its int8_t instantiation is
/// also AVX2's int8 entry: no byte gather exists.
template <typename W>
double SparseBlockAccScalar(double acc, const matrix::Index* indices,
                            const double* values, size_t* cursor, size_t nnz,
                            const W* m, matrix::Index hi);

/// Rows ScoreBatchMargins scores per chunk; accumulators and cursors live
/// on the stack. Each model block streams at most once per chunk.
inline constexpr size_t kRowChunk = 128;

/// Raw margins a_i . x for `n` rows against a float model, blocked and
/// classified exactly like GlmSpec::PredictBatch (which is now a thin
/// Link() wrapper over this). Uses OpsFor(ActiveKernelLevel()) unless an
/// explicit table is passed.
void ScoreBatchMargins(const double* model, matrix::Index dim,
                       const matrix::SparseVectorView* rows, size_t n,
                       double* out, const KernelOps* ops = nullptr);

/// Raw margins against an int8 model: out[i] = scale * sum_k v_k * q_k.
void ScoreBatchMarginsInt8(const int8_t* qmodel, double scale,
                           matrix::Index dim,
                           const matrix::SparseVectorView* rows, size_t n,
                           double* out, const KernelOps* ops = nullptr);

/// Symmetric int8 quantization of a weight vector: scale = max|w| / 127
/// (1.0 for an all-zero model), q_j = clamp(round(w_j / scale), -127, 127),
/// zero point 0. Returns the scale.
///
/// Error contract (the bound the serving opt-in and the bench gate are
/// held to): |w_j - scale*q_j| <= scale/2 for every weight, so a scored
/// margin obeys
///
///   |margin_int8 - margin_f64| <= (scale/2) * sum_k |x_k|
///
/// up to floating-point reassociation slack. Through a link function the
/// score error is at most the link's Lipschitz constant times that bound
/// (sigmoid: 1/4).
double QuantizeWeights(const double* weights, matrix::Index dim,
                       int8_t* out);

}  // namespace dw::kernels
