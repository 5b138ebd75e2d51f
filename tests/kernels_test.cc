// Unit suite for the runtime-dispatched scoring kernels: level parsing /
// detection / forcing, per-machine tuning clamps, int8 quantization and
// its documented error contract, and -- the load-bearing property -- the
// bitwise equality of every supported SIMD level against the scalar
// reference on the raw kernel entry points, including denormal and
// mixed-magnitude inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/dispatch.h"
#include "kernels/score_kernels.h"
#include "util/rng.h"

namespace dw::kernels {
namespace {

using matrix::Index;
using matrix::SparseVectorView;

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> out;
  for (KernelLevel l :
       {KernelLevel::kScalar, KernelLevel::kAvx2, KernelLevel::kAvx512}) {
    if (LevelSupported(l)) out.push_back(l);
  }
  return out;
}

TEST(KernelDispatchTest, ParseAndToStringRoundTrip) {
  for (KernelLevel l :
       {KernelLevel::kScalar, KernelLevel::kAvx2, KernelLevel::kAvx512}) {
    KernelLevel parsed;
    ASSERT_TRUE(ParseKernelLevel(ToString(l), &parsed)) << ToString(l);
    EXPECT_EQ(parsed, l);
  }
  KernelLevel ignored;
  EXPECT_FALSE(ParseKernelLevel("", &ignored));
  EXPECT_FALSE(ParseKernelLevel("avx", &ignored));
  EXPECT_FALSE(ParseKernelLevel("AVX2", &ignored));
  EXPECT_FALSE(ParseKernelLevel("sse4", &ignored));
}

TEST(KernelDispatchTest, ScalarAlwaysSupportedAndDetectionIsMonotone) {
  EXPECT_TRUE(LevelSupported(KernelLevel::kScalar));
  // The tiers are strictly ordered: a CPU running AVX-512F runs AVX2.
  if (LevelSupported(KernelLevel::kAvx512)) {
    EXPECT_TRUE(LevelSupported(KernelLevel::kAvx2));
  }
  EXPECT_TRUE(LevelSupported(DetectKernelLevel()));
  EXPECT_TRUE(LevelSupported(ActiveKernelLevel()));
}

TEST(KernelDispatchTest, ScopedOverrideForcesAndRestores) {
  const KernelLevel before = ActiveKernelLevel();
  for (KernelLevel l : SupportedLevels()) {
    ScopedKernelLevelForTesting forced(l);
    EXPECT_EQ(ActiveKernelLevel(), l);
    // ActiveOps() must follow the override (the hot-path entry).
    EXPECT_EQ(&ActiveOps(), &OpsFor(l));
  }
  EXPECT_EQ(ActiveKernelLevel(), before);
}

TEST(KernelDispatchTest, TuningIsClampedAndStable) {
  const KernelTuning& t = Tuning();
  EXPECT_GE(t.block_cols, 512);
  EXPECT_LE(t.block_cols, 65536);
  EXPECT_EQ(t.block_cols % 8, 0) << "block must preserve the 8-lane seams";
  // Resolved once per process: a second call returns the same object.
  EXPECT_EQ(&Tuning(), &t);
}

TEST(QuantizeWeightsTest, AllZeroModelUsesUnitScale) {
  const std::vector<double> w(17, 0.0);
  std::vector<int8_t> q(w.size(), 42);
  const double scale = QuantizeWeights(w.data(), w.size(), q.data());
  EXPECT_EQ(scale, 1.0);
  for (int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(QuantizeWeightsTest, RoundTripWithinHalfScaleAndMaxHits127) {
  Rng rng(0x9a51u);
  std::vector<double> w(513);
  for (auto& x : w) x = rng.Gaussian(0.0, 0.5);
  w[100] = 3.75;   // forced max: far outside the noise's reach
  w[200] = -3.75;
  std::vector<int8_t> q(w.size());
  const double scale = QuantizeWeights(w.data(), w.size(), q.data());
  EXPECT_DOUBLE_EQ(scale, 3.75 / 127.0);
  EXPECT_EQ(q[100], 127);
  EXPECT_EQ(q[200], -127);
  for (size_t j = 0; j < w.size(); ++j) {
    EXPECT_GE(q[j], -127);
    EXPECT_LE(q[j], 127);
    // The documented per-weight contract.
    EXPECT_LE(std::abs(w[j] - scale * q[j]), scale / 2 + 1e-15)
        << "weight " << j;
  }
}

/// Model/values generator mixing ordinary, huge, tiny, and DENORMAL
/// magnitudes: the bitwise contract has to hold where rounding is at its
/// least forgiving, not just on Gaussian data.
std::vector<double> EdgyVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    switch (rng.Below(8)) {
      case 0:
        x = 0.0;
        break;
      case 1:
        x = rng.Gaussian(0.0, 1e-310);  // denormal range
        break;
      case 2:
        x = rng.Gaussian(0.0, 1e150);
        break;
      case 3:
        x = rng.Gaussian(0.0, 1e-150);
        break;
      default:
        x = rng.Gaussian(0.0, 1.0);
        break;
    }
  }
  return v;
}

TEST(KernelBitwiseTest, DenseBlockDotMatchesScalarBitwise) {
  const std::vector<KernelLevel> levels = SupportedLevels();
  if (levels.size() == 1) {
    GTEST_LOG_(INFO) << "host runs scalar only; SIMD equality not covered";
  }
  // Block widths straddling the 8-lane seam: tails of every length.
  for (const Index dim : {Index{8}, Index{16}, Index{23}, Index{64},
                          Index{257}, Index{1000}}) {
    const std::vector<double> v = EdgyVector(dim, 0xd0d0 + dim);
    const std::vector<double> m = EdgyVector(dim, 0xa0d0 + dim);
    for (const Index lo : {Index{0}, Index{8}, Index{5}}) {
      if (lo >= dim) continue;
      const double ref = kScalarOps.dense_block_dot(v.data(), m.data(), lo,
                                                    dim);
      for (KernelLevel l : levels) {
        const double got = OpsFor(l).dense_block_dot(v.data(), m.data(), lo,
                                                     dim);
        EXPECT_EQ(got, ref) << ToString(l) << " dim " << dim << " lo " << lo;
      }
    }
  }
}

TEST(KernelBitwiseTest, Dense4BlockDotMatchesScalarBitwise) {
  for (const Index dim : {Index{8}, Index{31}, Index{512}, Index{777}}) {
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 4; ++r) rows.push_back(EdgyVector(dim, 70 + r));
    const std::vector<double> m = EdgyVector(dim, 99 + dim);
    const double* v4[4] = {rows[0].data(), rows[1].data(), rows[2].data(),
                           rows[3].data()};
    double ref[4] = {0.5, -1.0, 0.0, 2.0};  // seeded accumulators
    kScalarOps.dense4_block_dot(v4, m.data(), 0, dim, ref);
    for (KernelLevel l : SupportedLevels()) {
      double got[4] = {0.5, -1.0, 0.0, 2.0};
      OpsFor(l).dense4_block_dot(v4, m.data(), 0, dim, got);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(got[r], ref[r]) << ToString(l) << " dim " << dim << " row "
                                  << r;
      }
    }
  }
}

TEST(KernelBitwiseTest, SparseBlockAccMatchesScalarBitwiseAcrossBlocks) {
  Rng rng(0x5fa5e);
  const Index dim = 4096;
  const std::vector<double> m = EdgyVector(dim, 0xfeed);
  for (const size_t nnz : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                           size_t{8}, size_t{60}, size_t{300}}) {
    // Sorted unique indices over the full width.
    std::vector<Index> idx;
    Index j = static_cast<Index>(rng.Below(8));
    while (idx.size() < nnz && j < dim) {
      idx.push_back(j);
      j += 1 + static_cast<Index>(rng.Below(2 * dim / nnz + 1));
    }
    std::vector<double> val = EdgyVector(idx.size(), 0xabc + nnz);
    // Fold in two block steps so the cursor hand-off is exercised.
    const Index mid = dim / 2;
    size_t ref_cur = 0;
    double ref = kScalarOps.sparse_block_acc(0.25, idx.data(), val.data(),
                                             &ref_cur, idx.size(), m.data(),
                                             mid);
    ref = kScalarOps.sparse_block_acc(ref, idx.data(), val.data(), &ref_cur,
                                      idx.size(), m.data(), dim);
    EXPECT_EQ(ref_cur, idx.size());
    for (KernelLevel l : SupportedLevels()) {
      size_t cur = 0;
      double got = OpsFor(l).sparse_block_acc(0.25, idx.data(), val.data(),
                                              &cur, idx.size(), m.data(),
                                              mid);
      got = OpsFor(l).sparse_block_acc(got, idx.data(), val.data(), &cur,
                                       idx.size(), m.data(), dim);
      EXPECT_EQ(cur, idx.size()) << ToString(l) << " nnz " << nnz;
      EXPECT_EQ(got, ref) << ToString(l) << " nnz " << nnz;
    }
  }
}

TEST(KernelBitwiseTest, Int8KernelsMatchScalarBitwise) {
  Rng rng(0x17e8);
  const Index dim = 1003;
  std::vector<double> w(dim);
  for (auto& x : w) x = rng.Gaussian(0.0, 1.5);
  std::vector<int8_t> q(dim);
  QuantizeWeights(w.data(), dim, q.data());
  const std::vector<double> v = EdgyVector(dim, 0x1111);
  std::vector<std::vector<double>> rows;
  for (int r = 0; r < 4; ++r) rows.push_back(EdgyVector(dim, 0x2222 + r));
  const double* v4[4] = {rows[0].data(), rows[1].data(), rows[2].data(),
                         rows[3].data()};
  std::vector<Index> idx;
  for (Index j = 2; j < dim; j += 1 + static_cast<Index>(rng.Below(20))) {
    idx.push_back(j);
  }
  const std::vector<double> sval = EdgyVector(idx.size(), 0x3333);

  const double ref1 = kScalarOps.dense_block_dot_i8(v.data(), q.data(), 0,
                                                    dim);
  double ref4[4] = {0, 0, 0, 0};
  kScalarOps.dense4_block_dot_i8(v4, q.data(), 0, dim, ref4);
  size_t ref_cur = 0;
  const double refs = kScalarOps.sparse_block_acc_i8(
      0.0, idx.data(), sval.data(), &ref_cur, idx.size(), q.data(), dim);

  for (KernelLevel l : SupportedLevels()) {
    EXPECT_EQ(OpsFor(l).dense_block_dot_i8(v.data(), q.data(), 0, dim), ref1)
        << ToString(l);
    double got4[4] = {0, 0, 0, 0};
    OpsFor(l).dense4_block_dot_i8(v4, q.data(), 0, dim, got4);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(got4[r], ref4[r]) << ToString(l);
    size_t cur = 0;
    EXPECT_EQ(OpsFor(l).sparse_block_acc_i8(0.0, idx.data(), sval.data(),
                                            &cur, idx.size(), q.data(), dim),
              refs)
        << ToString(l);
    EXPECT_EQ(cur, idx.size());
  }
}

TEST(KernelBitwiseTest, Int8KernelsEqualF64KernelsOnWidenedWeights) {
  // Each int8 kernel is its level's f64 kernel with the weight load
  // widened in register, so on w[j] = double(q[j]) the two must agree
  // bitwise at every level. The sparse fold runs in two block steps so
  // the cursor hand-off across the seam is covered too.
  Rng rng(0x18f64);
  const Index dim = 1003;
  std::vector<int8_t> q(dim);
  for (auto& x : q) {
    x = static_cast<int8_t>(static_cast<int>(rng.Below(255)) - 127);
  }
  const std::vector<double> w(q.begin(), q.end());
  const std::vector<double> v = EdgyVector(dim, 0x4444);
  std::vector<std::vector<double>> rows;
  for (int r = 0; r < 4; ++r) rows.push_back(EdgyVector(dim, 0x5555 + r));
  const double* v4[4] = {rows[0].data(), rows[1].data(), rows[2].data(),
                         rows[3].data()};
  std::vector<Index> idx;
  for (Index j = 1; j < dim; j += 1 + static_cast<Index>(rng.Below(12))) {
    idx.push_back(j);
  }
  const std::vector<double> sval = EdgyVector(idx.size(), 0x6666);
  const Index mid = 517;  // not a multiple of 8: a ragged seam
  for (KernelLevel l : SupportedLevels()) {
    const KernelOps& ops = OpsFor(l);
    for (const Index lo : {Index{0}, Index{5}}) {
      EXPECT_EQ(ops.dense_block_dot_i8(v.data(), q.data(), lo, dim),
                ops.dense_block_dot(v.data(), w.data(), lo, dim))
          << ToString(l) << " lo " << lo;
    }
    double f4[4] = {0.5, -1.0, 0.0, 2.0};
    double i4[4] = {0.5, -1.0, 0.0, 2.0};
    ops.dense4_block_dot(v4, w.data(), 3, dim, f4);
    ops.dense4_block_dot_i8(v4, q.data(), 3, dim, i4);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(i4[r], f4[r]) << ToString(l);
    size_t fcur = 0, icur = 0;
    double fs = ops.sparse_block_acc(0.25, idx.data(), sval.data(), &fcur,
                                     idx.size(), w.data(), mid);
    double is = ops.sparse_block_acc_i8(0.25, idx.data(), sval.data(), &icur,
                                        idx.size(), q.data(), mid);
    EXPECT_EQ(icur, fcur) << ToString(l);
    EXPECT_EQ(is, fs) << ToString(l) << " first block";
    fs = ops.sparse_block_acc(fs, idx.data(), sval.data(), &fcur, idx.size(),
                              w.data(), dim);
    is = ops.sparse_block_acc_i8(is, idx.data(), sval.data(), &icur,
                                 idx.size(), q.data(), dim);
    EXPECT_EQ(icur, idx.size()) << ToString(l);
    EXPECT_EQ(is, fs) << ToString(l);
  }
}

TEST(ScoreBatchMarginsTest, ExplicitOpsTablesAgreeBitwiseOnFuzzedBatches) {
  // The full driver (classification + blocking + per-row fold) under each
  // level's table: margins must agree bitwise with the scalar table on
  // mixed batches, at any block seam. Seeded property fuzz.
  Rng rng(0xca2a1u);
  for (int iter = 0; iter < 10; ++iter) {
    const Index dim =
        9 + static_cast<Index>(rng.Below(2 * Tuning().block_cols + 500));
    const size_t n = 1 + rng.Below(200);
    std::vector<double> model = EdgyVector(dim, rng.Next());
    std::vector<std::vector<Index>> indices(n);
    std::vector<std::vector<double>> values(n);
    std::vector<SparseVectorView> views;
    for (size_t r = 0; r < n; ++r) {
      switch (rng.Below(4)) {
        case 0:  // full-width dense (register-tiled path)
          values[r] = EdgyVector(dim, rng.Next());
          break;
        case 1:  // short dense prefix
          values[r] = EdgyVector(1 + rng.Below(dim), rng.Next());
          break;
        case 2: {  // sorted sparse
          Index j = static_cast<Index>(rng.Below(4));
          while (j < dim && indices[r].size() < 80) {
            indices[r].push_back(j);
            j += 1 + static_cast<Index>(rng.Below(64));
          }
          values[r] = EdgyVector(indices[r].size(), rng.Next());
          break;
        }
        default:  // unsorted (reference fallback)
          indices[r] = {static_cast<Index>(rng.Below(dim)),
                        static_cast<Index>(rng.Below(dim))};
          values[r] = EdgyVector(2, rng.Next());
          break;
      }
      views.push_back({indices[r].empty() ? nullptr : indices[r].data(),
                       values[r].data(), values[r].size()});
    }
    std::vector<double> ref(n), got(n);
    ScoreBatchMargins(model.data(), dim, views.data(), n, ref.data(),
                      &kScalarOps);
    for (KernelLevel l : SupportedLevels()) {
      ScoreBatchMargins(model.data(), dim, views.data(), n, got.data(),
                        &OpsFor(l));
      for (size_t r = 0; r < n; ++r) {
        EXPECT_EQ(got[r], ref[r])
            << ToString(l) << " iter " << iter << " row " << r;
      }
    }
  }
}

TEST(ScoreBatchMarginsInt8Test, MarginsWithinDocumentedBound) {
  // The quantized driver against the float driver: per row,
  // |margin_q - margin| <= (scale/2) * sum|x| plus reassociation slack.
  Rng rng(0xdeca8u);
  const Index dim = 6000;
  std::vector<double> model(dim);
  for (auto& x : model) x = rng.Gaussian(0.0, 1.0);
  std::vector<int8_t> q(dim);
  const double scale = QuantizeWeights(model.data(), dim, q.data());
  const size_t n = 40;
  std::vector<std::vector<Index>> indices(n);
  std::vector<std::vector<double>> values(n);
  std::vector<SparseVectorView> views;
  for (size_t r = 0; r < n; ++r) {
    if (r % 2 == 0) {
      values[r].resize(dim);
      for (auto& v : values[r]) v = rng.Gaussian(0.0, 1.0);
    } else {
      for (Index j = static_cast<Index>(rng.Below(16)); j < dim;
           j += 1 + static_cast<Index>(rng.Below(128))) {
        indices[r].push_back(j);
      }
      values[r].resize(indices[r].size());
      for (auto& v : values[r]) v = rng.Gaussian(0.0, 1.0);
    }
    views.push_back({indices[r].empty() ? nullptr : indices[r].data(),
                     values[r].data(), values[r].size()});
  }
  std::vector<double> f64(n), i8(n);
  ScoreBatchMargins(model.data(), dim, views.data(), n, f64.data());
  ScoreBatchMarginsInt8(q.data(), scale, dim, views.data(), n, i8.data());
  for (size_t r = 0; r < n; ++r) {
    double abs_sum = 0.0;
    for (const double v : values[r]) abs_sum += std::abs(v);
    const double bound = (scale / 2) * abs_sum + 1e-9 * (1.0 + abs_sum);
    EXPECT_LE(std::abs(i8[r] - f64[r]), bound) << "row " << r;
  }
}

}  // namespace
}  // namespace dw::kernels
