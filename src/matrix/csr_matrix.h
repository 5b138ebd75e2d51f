// Compressed Sparse Row storage — the layout behind the row-wise access
// method (paper Sec. 2.1/3.2: "when we store the data as sparse vectors/
// matrices in CSR format, the number of reads in a row-wise access method
// is sum_i n_i").
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/sparse_vector.h"
#include "util/logging.h"
#include "util/status.h"

namespace dw::matrix {

/// One (row, col, value) entry used when building matrices.
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix (double values, 32-bit column indexes).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets. Duplicate (row, col) entries are summed.
  static StatusOr<CsrMatrix> FromTriplets(Index rows, Index cols,
                                          std::vector<Triplet> triplets);

  /// Builds directly from CSR arrays (validated).
  static StatusOr<CsrMatrix> FromCsrArrays(Index rows, Index cols,
                                           std::vector<int64_t> row_ptr,
                                           std::vector<Index> col_idx,
                                           std::vector<double> values);

  /// Number of rows (N: examples).
  Index rows() const { return rows_; }
  /// Number of columns (d: model dimension).
  Index cols() const { return cols_; }
  /// Total stored entries.
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// Entries in row i.
  size_t RowNnz(Index i) const {
    return static_cast<size_t>(row_ptr_[i + 1] - row_ptr_[i]);
  }

  /// View over row i.
  SparseVectorView Row(Index i) const {
    const int64_t begin = row_ptr_[i];
    return SparseVectorView{col_idx_.data() + begin, values_.data() + begin,
                            static_cast<size_t>(row_ptr_[i + 1] - begin)};
  }

  /// Raw arrays (for converters and tests).
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<Index>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Bytes one full scan of the matrix reads (values + indexes).
  int64_t ScanBytes() const {
    return nnz() * static_cast<int64_t>(sizeof(double) + sizeof(Index));
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<int64_t> row_ptr_;  // size rows_+1
  std::vector<Index> col_idx_;    // size nnz
  std::vector<double> values_;    // size nnz
};

}  // namespace dw::matrix
