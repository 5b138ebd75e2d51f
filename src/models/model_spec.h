// The model specification abstraction of paper Sec. 3.1: for one
// statistical task the user provides functions that solve the same model
// through different access methods --
//   f_row (row-wise):      takes a row index, may update the whole model;
//   f_col (column-wise):   takes a column index, updates one coordinate;
//   f_ctr (column-to-row): takes a column index and reads the full rows
//                          S(j) = {i : a_ij != 0}, updates one coordinate.
// A specification contains f_row plus either f_col or f_ctr (Sec. 3.1:
// "typically not both").
//
// Some column-wise methods (SCD over GLMs) maintain an auxiliary vector
// (residuals/margins, one entry per row) inside the replica; AuxDim()
// declares its size and RefreshAux() rebuilds it after model averaging.
// This is exactly why the paper's rule of thumb pairs SCD with PerMachine:
// the auxiliary state makes frequent cross-replica averaging expensive.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "matrix/csc_matrix.h"
#include "matrix/sparse_vector.h"
#include "util/logging.h"

namespace dw::models {

/// Whether a row-wise gradient writes only the row's nonzero coordinates
/// or the full model (paper Sec. 3.2, sparse vs. dense update).
enum class UpdateSparsity { kSparse, kDense };

/// Read-only context handed to every step function.
struct StepContext {
  const data::Dataset* dataset = nullptr;      ///< A, b, c
  const matrix::CscMatrix* csc = nullptr;      ///< column index (col/ctr)
  double step_size = 0.1;                      ///< current SGD step
};

/// Interface one statistical model implements. Implementations are
/// stateless (all mutable state lives in the replica buffers), so a single
/// instance is shared by every worker thread.
class ModelSpec {
 public:
  virtual ~ModelSpec() = default;

  /// Display name ("SVM", "LR", ...).
  virtual std::string name() const = 0;

  /// Dimension of the model vector for this dataset (usually d).
  virtual matrix::Index ModelDim(const data::Dataset& d) const {
    return d.a.cols();
  }

  /// Size of the auxiliary state maintained next to the model (0 if none).
  virtual size_t AuxDim(const data::Dataset&) const { return 0; }

  /// Rebuilds the auxiliary state from scratch for the given model (one
  /// full pass over the data). Called at init and after model averaging.
  virtual void RefreshAux(const data::Dataset&, const double* /*model*/,
                          double* /*aux*/) const {}

  // --- access methods -----------------------------------------------------

  /// True if the spec provides the given function.
  virtual bool HasRow() const { return true; }
  virtual bool HasCol() const { return false; }
  virtual bool HasCtr() const { return false; }

  /// f_row: one first-order step using row `i`.
  virtual void RowStep(const StepContext& ctx, matrix::Index i,
                       double* model, double* aux) const = 0;

  /// f_col: one coordinate step on column `j` (requires HasCol()).
  virtual void ColStep(const StepContext& /*ctx*/, matrix::Index /*j*/,
                       double* /*model*/, double* /*aux*/) const {}

  /// f_ctr: one coordinate step on column `j` reading rows S(j)
  /// (requires HasCtr()).
  virtual void CtrStep(const StepContext& /*ctx*/, matrix::Index /*j*/,
                       double* /*model*/, double* /*aux*/) const {}

  /// Accumulates row i's loss gradient into `grad` (same length as the
  /// model) WITHOUT touching the model. Used by batch-gradient baselines
  /// (the MLlib execution model); not on DimmWitted's own hot path.
  virtual void RowGradient(const StepContext& ctx, matrix::Index i,
                           const double* model, double* grad) const = 0;

  // --- serving -------------------------------------------------------------

  /// Scores one unseen feature row against a trained `model` (the serving
  /// path: no dataset, no label). The default is the linear decision value
  /// a . x; specs with a link function override it (e.g. logistic returns
  /// P(y = +1 | a)).
  virtual double Predict(const double* model,
                         const matrix::SparseVectorView& row) const {
    return row.Dot(model);
  }

  /// Scores `n` rows at once, writing one score per row into `out`
  /// (same semantics as n Predict() calls; `dim` is the model dimension,
  /// every row index must be < dim). This is the serving hot path: a
  /// flushed mini-batch is scored with ONE call so implementations can
  /// tile the model through the cache hierarchy instead of re-streaming
  /// it per row (paper Sec. 3.2 applied to inference). The default is the
  /// row-by-row reference; the GLM family overrides it with cache-blocked
  /// kernels.
  virtual void PredictBatch(const double* model, matrix::Index /*dim*/,
                            const matrix::SparseVectorView* rows, size_t n,
                            double* out) const {
    for (size_t k = 0; k < n; ++k) out[k] = Predict(model, rows[k]);
  }

  /// Model bytes one PredictBatch call over `n` rows with `total_nnz`
  /// nonzeros reads (drives the serving traffic accounting, which feeds
  /// the memory-model simulation). The default matches the reference
  /// implementation above: a per-row re-gather of the replica. Overrides
  /// must mirror their kernel's actual streaming behavior.
  virtual uint64_t PredictBatchModelBytes(matrix::Index /*dim*/,
                                          uint64_t total_nnz,
                                          size_t /*n*/) const {
    return total_nnz * sizeof(double);
  }

  /// True if the spec implements PredictBatchQuantized. Serving refuses
  /// ServingFamilyOptions::quantized for specs that do not.
  virtual bool SupportsQuantizedPredict() const { return false; }

  /// Scores `n` rows against a symmetric int8 quantization of the model
  /// (`qmodel[j] ~= model[j] / scale`, zero point 0 -- see
  /// kernels::QuantizeWeights for the construction and the bounded-error
  /// contract). Implementations must be dequantize-free: no double copy
  /// of the model may be materialized, since the point of the int8
  /// replica is moving 1/8 the model bytes. Only called when
  /// SupportsQuantizedPredict() is true.
  virtual void PredictBatchQuantized(const int8_t* /*qmodel*/,
                                     double /*scale*/, matrix::Index /*dim*/,
                                     const matrix::SparseVectorView* /*rows*/,
                                     size_t /*n*/, double* /*out*/) const {
    DW_CHECK(false) << name() << " does not support quantized scoring";
  }

  /// Model bytes one PredictBatchQuantized call reads (int8 replica).
  virtual uint64_t PredictBatchQuantizedModelBytes(matrix::Index /*dim*/,
                                                   uint64_t total_nnz,
                                                   size_t /*n*/) const {
    return total_nnz * sizeof(int8_t);
  }

  /// Touch pattern of RowStep's model write (drives the cost model).
  virtual UpdateSparsity RowWriteSparsity() const {
    return UpdateSparsity::kSparse;
  }

  /// True if ColStep maintains the auxiliary vector (then each column
  /// step also reads and patches the aux entries of S(j), which the cost
  /// model must charge -- this is what makes row-wise win for GLMs).
  virtual bool ColumnStepMaintainsAux() const { return false; }

  // --- loss ----------------------------------------------------------------

  /// Loss contribution of row `i` (Loss = sum_i RowLoss + GlobalLossTerm).
  virtual double RowLoss(const data::Dataset& d, matrix::Index i,
                         const double* model) const = 0;

  /// Loss term independent of any row (e.g. the c^T x term of the LP).
  virtual double GlobalLossTerm(const data::Dataset&,
                                const double* /*model*/) const {
    return 0.0;
  }

  /// Full loss: mean row loss + global term. Convenience (sequential).
  double Loss(const data::Dataset& d, const double* model) const {
    double sum = 0.0;
    for (matrix::Index i = 0; i < d.a.rows(); ++i) {
      sum += RowLoss(d, i, model);
    }
    const double n = std::max<double>(1.0, d.a.rows());
    return sum / n + GlobalLossTerm(d, model);
  }

  /// Projection applied to the model after initialization and averaging
  /// (e.g. clip to [0,1] for the LP relaxation).
  virtual void Project(double* /*model*/, matrix::Index /*dim*/) const {}
};

}  // namespace dw::models
