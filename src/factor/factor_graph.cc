#include "factor/factor_graph.h"

#include <algorithm>

#include "util/rng.h"

namespace dw::factor {

StatusOr<FactorGraph> FactorGraph::Build(VarId num_vars,
                                         std::vector<FactorDef> factors) {
  FactorGraph g;
  g.num_vars_ = num_vars;
  g.kind_.reserve(factors.size());
  g.weight_.reserve(factors.size());
  g.f2v_ptr_.reserve(factors.size() + 1);
  g.f2v_ptr_.push_back(0);

  for (const FactorDef& def : factors) {
    if (def.vars.empty()) {
      return Status::InvalidArgument("factor with no variables");
    }
    for (VarId v : def.vars) {
      if (v >= num_vars) {
        return Status::InvalidArgument("factor references unknown variable");
      }
    }
    if (def.kind == FactorKind::kUnary && def.vars.size() != 1) {
      return Status::InvalidArgument("unary factor must have arity 1");
    }
    if (def.kind == FactorKind::kIsing && def.vars.size() != 2) {
      return Status::InvalidArgument("ising factor must have arity 2");
    }
    g.kind_.push_back(def.kind);
    g.weight_.push_back(def.weight);
    for (VarId v : def.vars) g.f2v_idx_.push_back(v);
    g.f2v_ptr_.push_back(static_cast<int64_t>(g.f2v_idx_.size()));
  }

  // Invert: var -> factors.
  g.v2f_ptr_.assign(num_vars + 1, 0);
  for (VarId v : g.f2v_idx_) ++g.v2f_ptr_[v + 1];
  for (VarId v = 0; v < num_vars; ++v) g.v2f_ptr_[v + 1] += g.v2f_ptr_[v];
  g.v2f_idx_.resize(g.f2v_idx_.size());
  std::vector<int64_t> cursor(g.v2f_ptr_.begin(), g.v2f_ptr_.end() - 1);
  for (FactorId f = 0; f < g.num_factors(); ++f) {
    for (int64_t k = g.f2v_ptr_[f]; k < g.f2v_ptr_[f + 1]; ++k) {
      g.v2f_idx_[cursor[g.f2v_idx_[k]]++] = f;
    }
  }
  return g;
}

double FactorGraph::FactorEnergy(FactorId f, const uint8_t* assignment) const {
  size_t count = 0;
  const VarId* vars = FactorVars(f, &count);
  switch (kind_[f]) {
    case FactorKind::kUnary:
      return assignment[vars[0]] ? weight_[f] : 0.0;
    case FactorKind::kIsing:
      return assignment[vars[0]] == assignment[vars[1]] ? weight_[f] : 0.0;
    case FactorKind::kAnd: {
      for (size_t k = 0; k < count; ++k) {
        if (!assignment[vars[k]]) return 0.0;
      }
      return weight_[f];
    }
  }
  return 0.0;
}

double FactorGraph::ConditionalLogOdds(VarId v, uint8_t* assignment) const {
  size_t nf = 0;
  const FactorId* fs = VarFactors(v, &nf);
  const uint8_t keep = assignment[v];
  double e1 = 0.0, e0 = 0.0;
  assignment[v] = 1;
  for (size_t k = 0; k < nf; ++k) e1 += FactorEnergy(fs[k], assignment);
  assignment[v] = 0;
  for (size_t k = 0; k < nf; ++k) e0 += FactorEnergy(fs[k], assignment);
  assignment[v] = keep;
  return e1 - e0;
}

double FactorGraph::TotalEnergy(const uint8_t* assignment) const {
  double e = 0.0;
  for (FactorId f = 0; f < num_factors(); ++f) {
    e += FactorEnergy(f, assignment);
  }
  return e;
}

uint64_t FactorGraph::SampleReadBytes(VarId v,
                                      uint64_t* assignment_bytes) const {
  size_t nf = 0;
  const FactorId* fs = VarFactors(v, &nf);
  uint64_t bytes = nf * (sizeof(FactorId) + sizeof(double) + 1);
  for (size_t k = 0; k < nf; ++k) {
    size_t nv = 0;
    (void)FactorVars(fs[k], &nv);
    bytes += nv * (sizeof(VarId) + 1);  // neighbor ids + assignments
    if (assignment_bytes != nullptr) *assignment_bytes += nv;
  }
  return bytes;
}

FactorGraph MakeChainIsing(VarId n, double coupling, double field) {
  std::vector<FactorDef> defs;
  for (VarId v = 0; v < n; ++v) {
    defs.push_back({FactorKind::kUnary, field, {v}});
  }
  for (VarId v = 0; v + 1 < n; ++v) {
    defs.push_back({FactorKind::kIsing, coupling, {v, v + 1}});
  }
  auto g = FactorGraph::Build(n, std::move(defs));
  DW_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

FactorGraph MakeGridIsing(int rows, int cols, double coupling, double field,
                          uint64_t seed) {
  Rng rng(seed);
  const VarId n = static_cast<VarId>(rows) * cols;
  std::vector<FactorDef> defs;
  auto id = [cols](int r, int c) {
    return static_cast<VarId>(r) * cols + c;
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      defs.push_back(
          {FactorKind::kUnary, field * rng.Gaussian(1.0, 0.2), {id(r, c)}});
      if (c + 1 < cols) {
        defs.push_back({FactorKind::kIsing, coupling, {id(r, c), id(r, c + 1)}});
      }
      if (r + 1 < rows) {
        defs.push_back({FactorKind::kIsing, coupling, {id(r, c), id(r + 1, c)}});
      }
    }
  }
  auto g = FactorGraph::Build(n, std::move(defs));
  DW_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

FactorGraph MakePaleoLike(double scale, uint64_t seed) {
  // Paper scale-1 shape: 30M variables, 69M factors, 108M edges
  // => ~2.3 factors per variable, ~1.57 vars per factor (mostly unary
  // evidence plus pairwise correlations). Floors keep tiny scales sane.
  Rng rng(seed);
  const VarId num_vars = static_cast<VarId>(std::max(30e6 * scale, 2000.0));
  const FactorId num_factors =
      static_cast<FactorId>(std::max(69e6 * scale, 4600.0));
  ZipfSampler zipf(num_vars, 1.1);

  std::vector<FactorDef> defs;
  defs.reserve(num_factors);
  for (FactorId f = 0; f < num_factors; ++f) {
    // ~57% unary evidence, ~43% pairwise (yields ~1.57 vars/factor).
    if (rng.Bernoulli(0.57)) {
      defs.push_back({FactorKind::kUnary, rng.Gaussian(0.0, 0.8),
                      {static_cast<VarId>(zipf.Sample(rng))}});
    } else {
      VarId u = static_cast<VarId>(zipf.Sample(rng));
      VarId v = static_cast<VarId>(zipf.Sample(rng));
      if (u == v) v = (v + 1) % num_vars;
      defs.push_back({FactorKind::kIsing, rng.Gaussian(0.5, 0.3), {u, v}});
    }
  }
  auto g = FactorGraph::Build(num_vars, std::move(defs));
  DW_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

}  // namespace dw::factor
