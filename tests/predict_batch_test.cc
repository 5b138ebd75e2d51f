// Equivalence suite for the batched scoring kernels: for every GLM spec,
// ModelSpec::PredictBatch must reproduce row-by-row Predict() on dense and
// sparse rows, across the kernel's blocking seams (ragged final column
// block, ragged final row chunk, batch size 1), and for the classifier
// fallbacks (unsorted rows, non-GLM specs using the reference default).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/dispatch.h"
#include "kernels/score_kernels.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "serve/serving_engine.h"
#include "util/rng.h"

namespace dw::models {
namespace {

using matrix::Index;
using matrix::SparseVectorView;

/// Owned sparse rows (the views must point at stable storage).
struct RowSet {
  std::vector<std::vector<Index>> indices;
  std::vector<std::vector<double>> values;

  /// Mirrors serve::ScoreRequest::View(): empty indices with nonempty
  /// values is the explicit dense form (null index pointer).
  std::vector<SparseVectorView> Views() const {
    std::vector<SparseVectorView> v;
    v.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      v.push_back({indices[i].empty() ? nullptr : indices[i].data(),
                   values[i].data(), values[i].size()});
    }
    return v;
  }
};

std::vector<double> RandomModel(Index dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(dim);
  for (auto& x : w) x = rng.Gaussian(0.0, 1.0);
  return w;
}

/// `n` dense rows: the identity index pattern 0..dim-1.
RowSet DenseRows(size_t n, Index dim, uint64_t seed) {
  Rng rng(seed);
  RowSet rs;
  for (size_t r = 0; r < n; ++r) {
    std::vector<Index> idx(dim);
    std::vector<double> val(dim);
    for (Index j = 0; j < dim; ++j) {
      idx[j] = j;
      val[j] = rng.Gaussian(0.0, 1.0);
    }
    rs.indices.push_back(std::move(idx));
    rs.values.push_back(std::move(val));
  }
  return rs;
}

/// `n` sparse rows with sorted strictly-increasing indices spread over the
/// full dimension (so wide models cross several column blocks).
RowSet SparseRows(size_t n, Index dim, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  RowSet rs;
  for (size_t r = 0; r < n; ++r) {
    std::vector<Index> idx;
    // Sample-without-replacement by stride jitter: sorted and unique.
    const Index stride = std::max<Index>(1, dim / static_cast<Index>(nnz));
    for (Index j = static_cast<Index>(rng.Below(stride)); j < dim && idx.size() < nnz;
         j += 1 + static_cast<Index>(rng.Below(2 * stride))) {
      idx.push_back(j);
    }
    if (idx.empty()) idx.push_back(static_cast<Index>(rng.Below(dim)));
    std::vector<double> val(idx.size());
    for (auto& v : val) v = rng.Gaussian(0.0, 1.0);
    rs.indices.push_back(std::move(idx));
    rs.values.push_back(std::move(val));
  }
  return rs;
}

/// Asserts PredictBatch matches per-row Predict for every row. The sparse
/// and fallback paths preserve accumulation order (bitwise equal); the
/// dense kernel uses multi-lane accumulators, so the bound is the
/// reassociation epsilon of a dot over `dim` terms.
void ExpectBatchMatchesScalar(const ModelSpec& spec,
                              const std::vector<double>& model, Index dim,
                              const RowSet& rows) {
  const std::vector<SparseVectorView> views = rows.Views();
  std::vector<double> batched(views.size(), -1e300);
  spec.PredictBatch(model.data(), dim, views.data(), views.size(),
                    batched.data());
  for (size_t r = 0; r < views.size(); ++r) {
    const double scalar = spec.Predict(model.data(), views[r]);
    EXPECT_NEAR(batched[r], scalar,
                1e-9 * std::max(1.0, std::abs(scalar)))
        << spec.name() << " row " << r;
  }
}

template <typename SpecT>
class GlmPredictBatchTest : public ::testing::Test {
 protected:
  SpecT spec;
};

using GlmSpecs =
    ::testing::Types<SvmSpec, LogisticSpec, LeastSquaresSpec>;
TYPED_TEST_SUITE(GlmPredictBatchTest, GlmSpecs);

TYPED_TEST(GlmPredictBatchTest, DenseRowsSmallModel) {
  // dim under one column block: the unblocked dense fast path.
  const Index dim = 96;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 1), dim,
                           DenseRows(40, dim, 2));
}

TYPED_TEST(GlmPredictBatchTest, DenseRowsWideModelRaggedFinalBlock) {
  // dim = one block plus 1700 columns: the last column block is ragged
  // (not a multiple of the tuned block width), exercising the blocked
  // dense kernel's tail.
  const Index dim = kernels::Tuning().block_cols + 1700;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 3), dim,
                           DenseRows(9, dim, 4));
}

TYPED_TEST(GlmPredictBatchTest, SparseRowsSmallModel) {
  const Index dim = 300;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 5), dim,
                           SparseRows(64, dim, 12, 6));
}

TYPED_TEST(GlmPredictBatchTest, SparseRowsWideModelCrossBlockCursors) {
  // Sparse rows spanning three column blocks: the per-row cursor must
  // resume exactly where the previous block left off.
  const Index dim = 2 * kernels::Tuning().block_cols + 777;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 7), dim,
                           SparseRows(50, dim, 40, 8));
}

TYPED_TEST(GlmPredictBatchTest, BatchSizeOne) {
  const Index dim = kernels::Tuning().block_cols + 10;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 9), dim,
                           DenseRows(1, dim, 10));
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 11), dim,
                           SparseRows(1, dim, 5, 12));
}

TYPED_TEST(GlmPredictBatchTest, RaggedFinalRowChunk) {
  // n = one full row chunk plus a remainder: the chunk loop's tail.
  const size_t n = kernels::kRowChunk + 3;
  const Index dim = 128;
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 13), dim,
                           SparseRows(n, dim, 10, 14));
}

TYPED_TEST(GlmPredictBatchTest, MixedDenseSparseAndUnsortedRows) {
  const Index dim = kernels::Tuning().block_cols + 50;
  const std::vector<double> model = RandomModel(dim, 15);
  RowSet rs = DenseRows(2, dim, 16);
  RowSet sparse = SparseRows(3, dim, 20, 17);
  for (size_t r = 0; r < sparse.values.size(); ++r) {
    rs.indices.push_back(std::move(sparse.indices[r]));
    rs.values.push_back(std::move(sparse.values[r]));
  }
  // An unsorted row (descending indices) must hit the reference fallback
  // and still match, interleaved with kernel-path rows.
  rs.indices.push_back({dim - 1, 40, 7});
  rs.values.push_back({0.5, -1.25, 2.0});
  // A duplicate-index row is "unsorted" to the classifier (not strictly
  // increasing); Dot semantics sum both entries.
  rs.indices.push_back({3, 3, 9});
  rs.values.push_back({1.0, 2.0, -0.5});
  ExpectBatchMatchesScalar(this->spec, model, dim, rs);
}

TYPED_TEST(GlmPredictBatchTest, EmptyBatchAndEmptyRows) {
  const Index dim = 64;
  const std::vector<double> model = RandomModel(dim, 19);
  // n = 0 must not touch out.
  this->spec.PredictBatch(model.data(), dim, nullptr, 0, nullptr);
  // A zero-nnz row scores Link(0), same as scalar Predict.
  RowSet rs;
  rs.indices.push_back({});
  rs.values.push_back({});
  ExpectBatchMatchesScalar(this->spec, model, dim, rs);
}

TYPED_TEST(GlmPredictBatchTest, ExplicitDenseViewsFullAndShort) {
  // Null-index dense views: six full-width rows (one 4-row register tile
  // plus two remainder rows) and short rows whose lengths straddle the
  // column-block boundary.
  const Index dim = kernels::Tuning().block_cols + 900;
  Rng rng(31);
  RowSet rs;
  for (int r = 0; r < 6; ++r) {
    std::vector<double> val(dim);
    for (auto& v : val) v = rng.Gaussian(0.0, 1.0);
    rs.indices.push_back({});
    rs.values.push_back(std::move(val));
  }
  for (const size_t len : {size_t{1}, size_t{537},
                           size_t{kernels::Tuning().block_cols + 1}}) {
    std::vector<double> val(len);
    for (auto& v : val) v = rng.Gaussian(0.0, 1.0);
    rs.indices.push_back({});
    rs.values.push_back(std::move(val));
  }
  ExpectBatchMatchesScalar(this->spec, RandomModel(dim, 32), dim, rs);
}

TYPED_TEST(GlmPredictBatchTest, RandomizedFuzzedBatchesMatchScalar) {
  // Property test over fuzzed batches: any mix of row shapes the serving
  // path can produce -- empty rows, explicit dense (full and short),
  // identity-indexed, sorted sparse, unsorted, duplicate indices -- must
  // match row-by-row Predict, at any dim/batch size across the kernel's
  // blocking seams. Seeded: a failure reproduces from kSeed and the
  // SCOPED_TRACE coordinates alone.
  constexpr uint64_t kSeed = 0xba7c4ed5eedULL;
  Rng rng(kSeed);
  for (int iter = 0; iter < 20; ++iter) {
    const Index dim = 1 + static_cast<Index>(rng.Below(
                              2 * kernels::Tuning().block_cols + 500));
    const size_t n = 1 + rng.Below(kernels::kRowChunk + 33);
    RowSet rs;
    for (size_t r = 0; r < n; ++r) {
      std::vector<Index> idx;
      std::vector<double> val;
      switch (rng.Below(6)) {
        case 0:  // empty row: scores Link(0)
          break;
        case 1:  // explicit dense, full width (the register-tiled path)
          val.resize(dim);
          break;
        case 2:  // explicit dense, short prefix
          val.resize(1 + rng.Below(dim));
          break;
        case 3: {  // identity-indexed prefix (densified by real admission,
                   // but the kernel must also take it raw)
          const size_t len = 1 + rng.Below(dim);
          idx.resize(len);
          for (size_t k = 0; k < len; ++k) idx[k] = static_cast<Index>(k);
          val.resize(len);
          break;
        }
        case 4: {  // sorted sparse, unique indices
          const size_t want = 1 + rng.Below(64);
          idx.resize(want);
          for (auto& i : idx) i = static_cast<Index>(rng.Below(dim));
          std::sort(idx.begin(), idx.end());
          idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
          val.resize(idx.size());
          break;
        }
        default: {  // unsorted and/or duplicate indices: the reference
                    // fallback, interleaved with kernel-path rows
          const size_t len = 1 + rng.Below(64);
          idx.resize(len);
          for (auto& i : idx) i = static_cast<Index>(rng.Below(dim));
          val.resize(len);
          break;
        }
      }
      for (auto& v : val) v = rng.Gaussian(0.0, 1.0);
      rs.indices.push_back(std::move(idx));
      rs.values.push_back(std::move(val));
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + " dim " +
                 std::to_string(dim) + " n " + std::to_string(n));
    ExpectBatchMatchesScalar(this->spec, RandomModel(dim, rng.Next()), dim,
                             rs);
  }
}

/// Same fuzzed row-shape mix as RandomizedFuzzedBatchesMatchScalar (all
/// six classes the serving path can produce), factored out so the
/// per-ISA-level suite fuzzes identical batches.
RowSet FuzzedRows(Rng& rng, Index dim, size_t n) {
  RowSet rs;
  for (size_t r = 0; r < n; ++r) {
    std::vector<Index> idx;
    std::vector<double> val;
    switch (rng.Below(6)) {
      case 0:
        break;
      case 1:
        val.resize(dim);
        break;
      case 2:
        val.resize(1 + rng.Below(dim));
        break;
      case 3: {
        const size_t len = 1 + rng.Below(dim);
        idx.resize(len);
        for (size_t k = 0; k < len; ++k) idx[k] = static_cast<Index>(k);
        val.resize(len);
        break;
      }
      case 4: {
        const size_t want = 1 + rng.Below(64);
        idx.resize(want);
        for (auto& i : idx) i = static_cast<Index>(rng.Below(dim));
        std::sort(idx.begin(), idx.end());
        idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
        val.resize(idx.size());
        break;
      }
      default: {
        const size_t len = 1 + rng.Below(64);
        idx.resize(len);
        for (auto& i : idx) i = static_cast<Index>(rng.Below(dim));
        val.resize(len);
        break;
      }
    }
    for (auto& v : val) v = rng.Gaussian(0.0, 1.0);
    rs.indices.push_back(std::move(idx));
    rs.values.push_back(std::move(val));
  }
  return rs;
}

TYPED_TEST(GlmPredictBatchTest, SimdLevelsBitwiseEqualScalarOnFuzzedBatches) {
  // The CI dispatch matrix's in-process twin: for every supported ISA
  // level, a forced PredictBatch must reproduce the forced-scalar output
  // BITWISE (EXPECT_EQ on doubles, not NEAR) across all fuzzed row-shape
  // classes and blocking seams. Denormal-magnitude weights are mixed in:
  // equality has to hold where rounding is least forgiving.
  std::vector<kernels::KernelLevel> simd;
  for (kernels::KernelLevel l :
       {kernels::KernelLevel::kAvx2, kernels::KernelLevel::kAvx512}) {
    if (kernels::LevelSupported(l)) simd.push_back(l);
  }
  if (simd.empty()) {
    GTEST_SKIP() << "host CPU has no AVX2/AVX-512; scalar-only";
  }
  constexpr uint64_t kSeed = 0xba7c4ed5eedULL;
  Rng rng(kSeed);
  for (int iter = 0; iter < 12; ++iter) {
    const Index dim = 1 + static_cast<Index>(rng.Below(
                              2 * kernels::Tuning().block_cols + 500));
    const size_t n = 1 + rng.Below(kernels::kRowChunk + 33);
    RowSet rs = FuzzedRows(rng, dim, n);
    std::vector<double> model = RandomModel(dim, rng.Next());
    // A few denormal / extreme weights per iteration.
    for (int k = 0; k < 8; ++k) {
      model[rng.Below(dim)] = rng.Gaussian(0.0, 1e-310);
      model[rng.Below(dim)] = rng.Gaussian(0.0, 1e120);
    }
    const std::vector<SparseVectorView> views = rs.Views();
    std::vector<double> ref(views.size()), got(views.size());
    {
      kernels::ScopedKernelLevelForTesting forced(
          kernels::KernelLevel::kScalar);
      this->spec.PredictBatch(model.data(), dim, views.data(), views.size(),
                              ref.data());
    }
    for (kernels::KernelLevel l : simd) {
      kernels::ScopedKernelLevelForTesting forced(l);
      this->spec.PredictBatch(model.data(), dim, views.data(), views.size(),
                              got.data());
      for (size_t r = 0; r < views.size(); ++r) {
        EXPECT_EQ(got[r], ref[r])
            << this->spec.name() << " level " << kernels::ToString(l)
            << " iter " << iter << " dim " << dim << " row " << r;
      }
    }
  }
}

TYPED_TEST(GlmPredictBatchTest, QuantizedBatchWithinDocumentedErrorBound) {
  // PredictBatchQuantized against float PredictBatch, per row:
  // |score_q - score| <= L * (scale/2) * sum|x| + slack, with L the link's
  // Lipschitz constant (sigmoid 1/4, identity otherwise). Also pinned
  // bitwise-equal across ISA levels like the float path.
  const double lipschitz =
      std::is_same<TypeParam, LogisticSpec>::value ? 0.25 : 1.0;
  constexpr uint64_t kSeed = 0x1be8f00dULL;
  Rng rng(kSeed);
  for (int iter = 0; iter < 8; ++iter) {
    const Index dim = 16 + static_cast<Index>(rng.Below(
                               kernels::Tuning().block_cols + 700));
    const size_t n = 1 + rng.Below(80);
    RowSet rs = FuzzedRows(rng, dim, n);
    const std::vector<double> model = RandomModel(dim, rng.Next());
    std::vector<int8_t> q(dim);
    const double scale =
        kernels::QuantizeWeights(model.data(), dim, q.data());
    const std::vector<SparseVectorView> views = rs.Views();
    std::vector<double> f64(views.size()), i8(views.size());
    this->spec.PredictBatch(model.data(), dim, views.data(), views.size(),
                            f64.data());
    this->spec.PredictBatchQuantized(q.data(), scale, dim, views.data(),
                                     views.size(), i8.data());
    for (size_t r = 0; r < views.size(); ++r) {
      double abs_sum = 0.0;
      for (const double v : rs.values[r]) abs_sum += std::abs(v);
      const double bound =
          lipschitz * (scale / 2) * abs_sum + 1e-9 * (1.0 + abs_sum);
      EXPECT_LE(std::abs(i8[r] - f64[r]), bound)
          << this->spec.name() << " iter " << iter << " row " << r;
    }
    for (kernels::KernelLevel l :
         {kernels::KernelLevel::kAvx2, kernels::KernelLevel::kAvx512}) {
      if (!kernels::LevelSupported(l)) continue;
      std::vector<double> forced(views.size());
      kernels::ScopedKernelLevelForTesting scoped(l);
      this->spec.PredictBatchQuantized(q.data(), scale, dim, views.data(),
                                       views.size(), forced.data());
      for (size_t r = 0; r < views.size(); ++r) {
        EXPECT_EQ(forced[r], i8[r])
            << this->spec.name() << " level " << kernels::ToString(l)
            << " iter " << iter << " row " << r;
      }
    }
  }
}

TEST(PredictBatchDefaultTest, NonGlmSpecUsesRowByRowReference) {
  // LpSpec does not override PredictBatch: the ModelSpec default must
  // delegate to the spec's own Predict row by row.
  LpSpec lp;
  const Index dim = 50;
  const std::vector<double> model = RandomModel(dim, 21);
  ExpectBatchMatchesScalar(lp, model, dim, SparseRows(17, dim, 2, 22));
}

TEST(PredictBatchLinkTest, LogisticBatchAppliesSigmoid) {
  // Guards the Link() wiring: a batched LR score is a probability, not a
  // raw margin.
  LogisticSpec lr;
  const Index dim = 8;
  std::vector<double> model(dim, 1.0);
  RowSet rs = DenseRows(4, dim, 23);
  const std::vector<SparseVectorView> views = rs.Views();
  std::vector<double> out(views.size());
  lr.PredictBatch(model.data(), dim, views.data(), views.size(), out.data());
  for (size_t r = 0; r < out.size(); ++r) {
    EXPECT_GT(out[r], 0.0);
    EXPECT_LT(out[r], 1.0);
    double margin = 0.0;
    for (Index j = 0; j < dim; ++j) margin += rs.values[r][j];
    EXPECT_NEAR(out[r], Sigmoid(margin), 1e-12);
  }
}

TEST(PredictBatchServingTest, BatchedKernelsServeEachFamilysOwnSpec) {
  // End-to-end through the multi-family serving engine in batched mode:
  // every flushed mini-batch is routed to ITS family's PredictBatch, so
  // two families with different link functions must each reproduce their
  // own scalar Predict on the same payloads.
  LogisticSpec lr;
  LeastSquaresSpec ls;
  const Index dim = 96;
  const std::vector<double> lr_model = RandomModel(dim, 31);
  const std::vector<double> ls_model = RandomModel(dim, 32);
  RowSet rs = SparseRows(40, dim, 12, 33);

  serve::ServingOptions opts;
  opts.topology = numa::Local2();
  opts.scoring = serve::ScoringMode::kBatched;
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  serve::ServingEngine server(opts);
  serve::ServingFamilyOptions fam;
  fam.traffic.dim = dim;
  fam.replication_override = serve::Replication::kPerNode;
  ASSERT_TRUE(server.RegisterFamily("lr", &lr, fam).ok());
  ASSERT_TRUE(server.RegisterFamily("ls", &ls, fam).ok());
  server.Publish("lr", lr_model);
  server.Publish("ls", ls_model);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<SparseVectorView> views = rs.Views();
  for (size_t r = 0; r < views.size(); ++r) {
    auto from_lr = server.ScoreSync("lr", rs.indices[r], rs.values[r]);
    auto from_ls = server.ScoreSync("ls", rs.indices[r], rs.values[r]);
    ASSERT_TRUE(from_lr.ok());
    ASSERT_TRUE(from_ls.ok());
    EXPECT_NEAR(from_lr.value(), lr.Predict(lr_model.data(), views[r]), 1e-12)
        << "lr row " << r;
    EXPECT_NEAR(from_ls.value(), ls.Predict(ls_model.data(), views[r]), 1e-12)
        << "ls row " << r;
  }
  server.Stop();
}

TEST(PredictBatchServingTest, QuantizedFamilyServesWithinErrorBound) {
  // End-to-end int8 serving: a family registered with quantized=true is
  // scored by workers through PredictBatchQuantized against the int8
  // replicas Publish() built -- every score must match the spec's own
  // quantized reference exactly and stay within the documented bound of
  // the float score. A plain family on the same engine keeps serving f64.
  LeastSquaresSpec ls;
  const Index dim = 700;
  const std::vector<double> model = RandomModel(dim, 41);
  std::vector<int8_t> q(dim);
  const double scale = kernels::QuantizeWeights(model.data(), dim, q.data());
  RowSet rs = SparseRows(30, dim, 24, 42);

  serve::ServingOptions opts;
  opts.topology = numa::Local2();
  opts.scoring = serve::ScoringMode::kBatched;
  opts.batch.max_batch_size = 8;
  opts.batch.max_delay = std::chrono::microseconds(100);
  serve::ServingEngine server(opts);
  serve::ServingFamilyOptions fam;
  fam.traffic.dim = dim;
  fam.replication_override = serve::Replication::kPerNode;
  ASSERT_TRUE(server.RegisterFamily("plain", &ls, fam).ok());
  fam.quantized = true;
  ASSERT_TRUE(server.RegisterFamily("int8", &ls, fam).ok());
  server.Publish("plain", model);
  server.Publish("int8", model);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<SparseVectorView> views = rs.Views();
  std::vector<double> want(views.size());
  ls.PredictBatchQuantized(q.data(), scale, dim, views.data(), views.size(),
                           want.data());
  for (size_t r = 0; r < views.size(); ++r) {
    auto from_q = server.ScoreSync("int8", rs.indices[r], rs.values[r]);
    auto from_f = server.ScoreSync("plain", rs.indices[r], rs.values[r]);
    ASSERT_TRUE(from_q.ok());
    ASSERT_TRUE(from_f.ok());
    // The worker ran the same deterministic quantized kernel.
    EXPECT_EQ(from_q.value(), want[r]) << "row " << r;
    // The f64 family is untouched by its neighbor's opt-in.
    EXPECT_EQ(from_f.value(), ls.Predict(model.data(), views[r]))
        << "row " << r;
    double abs_sum = 0.0;
    for (const double v : rs.values[r]) abs_sum += std::abs(v);
    EXPECT_LE(std::abs(from_q.value() - from_f.value()),
              (scale / 2) * abs_sum + 1e-9 * (1.0 + abs_sum))
        << "row " << r;
  }
  server.Stop();
  const serve::ServingStats stats = server.Stats();
  for (const serve::FamilyServingStats& f : stats.families) {
    EXPECT_EQ(f.quantized, f.family == "int8");
    EXPECT_EQ(f.kernel_level,
              kernels::ToString(kernels::ActiveKernelLevel()));
    EXPECT_EQ(f.kernel_rows, f.requests) << f.family;  // batched mode
  }
}

TEST(PredictBatchServingTest, QuantizedRefusedForSpecsWithoutSupport) {
  // The opt-in is validated at registration, not CHECK-failed in a
  // worker: LpSpec has no quantized kernel.
  LpSpec lp;
  serve::ServingOptions opts;
  opts.topology = numa::Local2();
  serve::ServingEngine server(opts);
  serve::ServingFamilyOptions fam;
  fam.traffic.dim = 32;
  fam.quantized = true;
  const Status s = server.RegisterFamily("lp", &lp, fam);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace dw::models
