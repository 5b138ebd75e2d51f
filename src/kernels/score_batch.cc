// The blocked batch-scoring driver: row classification + cache blocking
// (hoisted from GlmSpec::PredictBatch), with the inner loops dispatched
// through the active KernelOps table. Also home of OpsFor/ActiveOps and
// the int8 weight quantizer.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "kernels/dispatch.h"
#include "kernels/score_kernels.h"
#include "util/logging.h"

namespace dw::kernels {

using matrix::Index;
using matrix::SparseVectorView;

const KernelOps& OpsFor(KernelLevel level) {
  DW_CHECK(LevelSupported(level))
      << "kernel level " << ToString(level) << " not supported on this CPU";
  switch (level) {
    case KernelLevel::kScalar:
      return kScalarOps;
    case KernelLevel::kAvx2:
      return kAvx2Ops;
    case KernelLevel::kAvx512:
      return kAvx512Ops;
  }
  return kScalarOps;
}

const KernelOps& ActiveOps() { return OpsFor(ActiveKernelLevel()); }

namespace {

/// How the blocked driver scans one row of the mini-batch.
enum class RowKind : uint8_t {
  kDenseFull,   ///< identity pattern spanning the full model: tiled 4 at
                ///< a time, no index loads
  kDenseShort,  ///< explicit dense view shorter than the model (identity
                ///< over a prefix): direct, untiled
  kSparse,      ///< strictly increasing indices: monotone-cursor gather
  kFallback,    ///< unsorted/duplicate indices: per-row reference dot
};

/// Classifies a row in one linear pass over its indices. Explicitly dense
/// views (null indices, see SparseVectorView) classify in O(1). For
/// indexed rows the dense check is an exact identity test
/// (indices[k] == k for all k) written as a branchless OR-fold so it
/// vectorizes; misclassifying would corrupt scores, so no sampling
/// shortcuts.
RowKind ClassifyRow(const SparseVectorView& row, Index dim) {
  if (row.indices == nullptr) {
    return row.nnz == static_cast<size_t>(dim) ? RowKind::kDenseFull
                                               : RowKind::kDenseShort;
  }
  if (row.nnz == static_cast<size_t>(dim) && dim > 0) {
    Index mismatch = 0;
    for (size_t k = 0; k < row.nnz; ++k) {
      mismatch |= row.indices[k] ^ static_cast<Index>(k);
    }
    if (mismatch == 0) return RowKind::kDenseFull;
  }
  for (size_t k = 1; k < row.nnz; ++k) {
    if (row.indices[k] <= row.indices[k - 1]) return RowKind::kFallback;
  }
  return RowKind::kSparse;
}

/// Reference dot for fallback (unsorted/duplicate) rows against an int8
/// model: the strict left-to-right fold of the unscaled products.
double Int8RefDot(const SparseVectorView& row, const int8_t* qmodel) {
  double acc = 0.0;
  if (row.indices == nullptr) {
    for (size_t k = 0; k < row.nnz; ++k) {
      acc += row.values[k] * static_cast<double>(qmodel[k]);
    }
  } else {
    for (size_t k = 0; k < row.nnz; ++k) {
      acc += row.values[k] * static_cast<double>(qmodel[row.indices[k]]);
    }
  }
  return acc;
}

/// The shared chunk/classify/block skeleton: `Model` is const double* or
/// const int8_t*, the lambdas bind the matching KernelOps entries, and
/// `finish` maps a raw accumulator to the stored margin (identity for
/// f64, *scale for int8). `fallback` scores one unsorted row directly.
template <typename Model, typename Dense1, typename Dense4, typename Sparse,
          typename Fallback, typename Finish>
void BlockedScore(Model model, Index dim, const SparseVectorView* rows,
                  size_t n, double* out, Index block_cols, Dense1 dense1,
                  Dense4 dense4, Sparse sparse, Fallback fallback,
                  Finish finish) {
  for (size_t base = 0; base < n; base += kRowChunk) {
    const size_t chunk = std::min(kRowChunk, n - base);
    double acc[kRowChunk];
    size_t cursor[kRowChunk];
    size_t dense_full[kRowChunk];
    size_t n_full = 0;
    RowKind kind[kRowChunk];
    for (size_t r = 0; r < chunk; ++r) {
      acc[r] = 0.0;
      cursor[r] = 0;
      kind[r] = ClassifyRow(rows[base + r], dim);
      if (kind[r] == RowKind::kDenseFull) {
        dense_full[n_full++] = r;
      } else if (kind[r] == RowKind::kFallback) {
        out[base + r] = finish(fallback(rows[base + r], model));
      }
    }
    // Tile the feature dimension: each model block is read once and stays
    // cached while every row of the chunk consumes its slice.
    for (Index lo = 0; lo < dim; lo += block_cols) {
      const Index hi = std::min<Index>(dim, lo + block_cols);
      // Full-width dense rows, four per register tile.
      size_t g = 0;
      for (; g + 4 <= n_full; g += 4) {
        double a4[4] = {0.0, 0.0, 0.0, 0.0};
        const double* v4[4] = {rows[base + dense_full[g]].values,
                               rows[base + dense_full[g + 1]].values,
                               rows[base + dense_full[g + 2]].values,
                               rows[base + dense_full[g + 3]].values};
        dense4(v4, model, lo, hi, a4);
        for (int t = 0; t < 4; ++t) acc[dense_full[g + t]] += a4[t];
      }
      for (; g < n_full; ++g) {
        acc[dense_full[g]] +=
            dense1(rows[base + dense_full[g]].values, model, lo, hi);
      }
      // Short dense and sparse rows, one at a time.
      for (size_t r = 0; r < chunk; ++r) {
        const SparseVectorView& row = rows[base + r];
        if (kind[r] == RowKind::kDenseShort) {
          const Index end = std::min<Index>(hi, static_cast<Index>(row.nnz));
          if (lo < end) acc[r] += dense1(row.values, model, lo, end);
        } else if (kind[r] == RowKind::kSparse) {
          // The sparse fold is seeded from acc[r], not a fresh partial:
          // terms join the running sum strictly left-to-right, so the
          // sparse path stays bitwise equal to the unblocked dot.
          acc[r] = sparse(acc[r], row.indices, row.values, &cursor[r],
                          row.nnz, model, hi);
        }
      }
    }
    for (size_t r = 0; r < chunk; ++r) {
      if (kind[r] != RowKind::kFallback) out[base + r] = finish(acc[r]);
    }
  }
}

}  // namespace

void ScoreBatchMargins(const double* model, Index dim,
                       const SparseVectorView* rows, size_t n, double* out,
                       const KernelOps* ops) {
  const KernelOps& k = ops != nullptr ? *ops : ActiveOps();
  BlockedScore(
      model, dim, rows, n, out, Tuning().block_cols, k.dense_block_dot,
      k.dense4_block_dot, k.sparse_block_acc,
      [](const SparseVectorView& row, const double* m) { return row.Dot(m); },
      [](double margin) { return margin; });
}

void ScoreBatchMarginsInt8(const int8_t* qmodel, double scale, Index dim,
                           const SparseVectorView* rows, size_t n,
                           double* out, const KernelOps* ops) {
  const KernelOps& k = ops != nullptr ? *ops : ActiveOps();
  BlockedScore(
      qmodel, dim, rows, n, out, Tuning().block_cols, k.dense_block_dot_i8,
      k.dense4_block_dot_i8, k.sparse_block_acc_i8,
      [](const SparseVectorView& row, const int8_t* m) {
        return Int8RefDot(row, m);
      },
      [scale](double raw) { return scale * raw; });
}

double QuantizeWeights(const double* weights, Index dim, int8_t* out) {
  double max_abs = 0.0;
  for (Index j = 0; j < dim; ++j) {
    max_abs = std::max(max_abs, std::fabs(weights[j]));
  }
  // All-zero (or non-finite-free zero) model: any positive scale encodes
  // it exactly as zeros.
  const double scale = max_abs > 0.0 ? max_abs / 127.0 : 1.0;
  const double inv = 1.0 / scale;
  for (Index j = 0; j < dim; ++j) {
    const double q = std::nearbyint(weights[j] * inv);
    out[j] = static_cast<int8_t>(std::clamp(q, -127.0, 127.0));
  }
  return scale;
}

}  // namespace dw::kernels
