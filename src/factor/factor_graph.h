// Factor graphs over binary variables (paper Sec. 5.1 / D.1). A factor
// graph is a bipartite graph of variables and factors; sampling one
// variable requires fetching all factors that contain it and the current
// assignments of the variables those factors touch -- exactly the
// column-to-row access method (Fig. 23(b): rows are factors, columns are
// variables).
#pragma once

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace dw::factor {

using VarId = uint32_t;
using FactorId = uint32_t;

/// Factor families. Energies are log-potentials: P(x) ~ exp(sum_f E_f(x)).
enum class FactorKind : uint8_t {
  kUnary,  ///< E = w * x_v                      (arity 1)
  kIsing,  ///< E = w * [x_u == x_v]             (arity 2)
  kAnd,    ///< E = w * (x_a AND x_b AND ...)    (arity >= 2)
};

/// One factor definition used while building the graph.
struct FactorDef {
  FactorKind kind = FactorKind::kUnary;
  double weight = 0.0;
  std::vector<VarId> vars;
};

/// Immutable bipartite structure with both directions materialized:
/// factor -> vars (CSR: the "rows") and var -> factors (CSC: the access
/// path for Gibbs).
class FactorGraph {
 public:
  /// Builds and validates the bipartite indexes.
  static StatusOr<FactorGraph> Build(VarId num_vars,
                                     std::vector<FactorDef> factors);

  VarId num_vars() const { return num_vars_; }
  FactorId num_factors() const { return static_cast<FactorId>(kind_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(f2v_idx_.size()); }

  FactorKind kind(FactorId f) const { return kind_[f]; }
  double weight(FactorId f) const { return weight_[f]; }

  /// Variables of factor f (begin pointer + count).
  const VarId* FactorVars(FactorId f, size_t* count) const {
    *count = static_cast<size_t>(f2v_ptr_[f + 1] - f2v_ptr_[f]);
    return f2v_idx_.data() + f2v_ptr_[f];
  }

  /// Factors incident to variable v.
  const FactorId* VarFactors(VarId v, size_t* count) const {
    *count = static_cast<size_t>(v2f_ptr_[v + 1] - v2f_ptr_[v]);
    return v2f_idx_.data() + v2f_ptr_[v];
  }

  /// Energy of factor f under `assignment` (one byte per variable, 0/1).
  double FactorEnergy(FactorId f, const uint8_t* assignment) const;

  /// log P(x_v = 1 | rest) - log P(x_v = 0 | rest): the Gibbs kernel.
  /// This is the column-to-row read described in the paper.
  double ConditionalLogOdds(VarId v, uint8_t* assignment) const;

  /// Total energy (for tests; O(edges)).
  double TotalEnergy(const uint8_t* assignment) const;

  /// Bytes touched when sampling variable v once (factor structures plus
  /// neighbor assignments) -- the traffic model for throughput simulation.
  /// Adds the neighbor-assignment share to `*assignment_bytes` if given.
  uint64_t SampleReadBytes(VarId v,
                           uint64_t* assignment_bytes = nullptr) const;

 private:
  VarId num_vars_ = 0;
  std::vector<FactorKind> kind_;
  std::vector<double> weight_;
  std::vector<int64_t> f2v_ptr_;
  std::vector<VarId> f2v_idx_;
  std::vector<int64_t> v2f_ptr_;
  std::vector<FactorId> v2f_idx_;
};

/// Chain Ising model: v_i -- v_{i+1} couplings plus per-variable fields.
FactorGraph MakeChainIsing(VarId n, double coupling, double field);

/// 2-D grid Ising model (rows x cols variables).
FactorGraph MakeGridIsing(int rows, int cols, double coupling, double field,
                          uint64_t seed);

/// Paleo-like inference workload (paper Fig. 10: 69M factors, 30M vars,
/// 108M nnz at scale 1): power-law variable popularity, a mix of unary
/// evidence factors and pairwise correlation factors.
FactorGraph MakePaleoLike(double scale, uint64_t seed);

}  // namespace dw::factor
