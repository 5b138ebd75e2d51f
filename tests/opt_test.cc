// Tests for the cost model and optimizer: Fig. 6 formulas, the Fig. 7(b)
// cost ratio, robustness of the access-method decision over alpha in
// [4, 100] (paper Sec. 3.2), and the Fig. 14 plan table.
#include <gtest/gtest.h>

#include "data/paper_datasets.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "numa/memory_model.h"
#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "opt/placement.h"

namespace dw::opt {
namespace {

using engine::AccessMethod;
using engine::DataReplication;
using engine::ModelReplication;

matrix::MatrixStats StatsOf(const data::Dataset& d) { return d.Stats(); }

TEST(CostModelTest, Figure6Formulas) {
  // Hand-checkable matrix: 3 rows with n_i = {2, 0, 2}, d = 3.
  auto m = matrix::CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}});
  ASSERT_TRUE(m.ok());
  const auto stats = matrix::ComputeStats(m.value());

  const AccessCost row_sparse = EstimateAccessCost(
      stats, AccessMethod::kRowWise, models::UpdateSparsity::kSparse);
  EXPECT_DOUBLE_EQ(row_sparse.reads, 4.0);      // sum n_i
  EXPECT_DOUBLE_EQ(row_sparse.writes, 4.0);     // sparse: sum n_i

  const AccessCost row_dense = EstimateAccessCost(
      stats, AccessMethod::kRowWise, models::UpdateSparsity::kDense);
  EXPECT_DOUBLE_EQ(row_dense.writes, 9.0);      // dense: d*N

  const AccessCost col = EstimateAccessCost(
      stats, AccessMethod::kColWise, models::UpdateSparsity::kSparse);
  EXPECT_DOUBLE_EQ(col.reads, 4.0);             // sum n_i
  EXPECT_DOUBLE_EQ(col.writes, 3.0);            // d

  const AccessCost ctr = EstimateAccessCost(
      stats, AccessMethod::kColToRow, models::UpdateSparsity::kSparse);
  EXPECT_DOUBLE_EQ(ctr.reads, 8.0);             // sum n_i^2
  EXPECT_DOUBLE_EQ(ctr.writes, 3.0);            // d

  EXPECT_DOUBLE_EQ(row_sparse.Total(10.0), 4.0 + 40.0);
}

TEST(CostModelTest, CostRatioMatchesPaperFormula) {
  const data::Dataset d = data::Rcv1(0.002);
  const auto stats = StatsOf(d);
  const double alpha = 10.0;
  const double expected = (1.0 + alpha) * stats.sum_ni /
                          (stats.sum_ni_sq + alpha * stats.cols);
  EXPECT_NEAR(CostRatio(stats, alpha), expected, 1e-12);
}

TEST(CostModelTest, TextCorporaFavorRowWise) {
  // RCV1-like text: rows carry ~77 nonzeros, so sum n_i^2 >> sum n_i and
  // the row-wise method must win for SVM/LR/LS (paper Fig. 14).
  const data::Dataset d = data::Rcv1(0.002);
  models::SvmSpec svm;
  for (double alpha : {4.0, 10.0, 40.0, 100.0}) {
    EXPECT_EQ(ChooseAccessMethod(StatsOf(d), svm, alpha),
              AccessMethod::kRowWise)
        << "alpha=" << alpha;
  }
}

TEST(CostModelTest, EdgeConstraintGraphsFavorColumns) {
  // LP rows have exactly 2 nonzeros: sum n_i^2 = 2 sum n_i, and writes
  // dominate, so the column method must win for all plausible alpha
  // (the Sec. 3.2 robustness claim: any alpha in [4, 100] gives the same
  // decision).
  const data::Dataset d = data::AmazonLp(0.002);
  models::LpSpec lp;
  for (double alpha : {4.0, 10.0, 40.0, 100.0}) {
    EXPECT_EQ(ChooseAccessMethod(StatsOf(d), lp, alpha),
              AccessMethod::kColToRow)
        << "alpha=" << alpha;
  }
}

TEST(CostModelTest, AlphaGrowsWithSocketCount) {
  EXPECT_LT(AlphaForTopology(numa::Local2()),
            AlphaForTopology(numa::Local4()));
  EXPECT_LT(AlphaForTopology(numa::Local4()),
            AlphaForTopology(numa::Local8()));
}

TEST(CostModelTest, HostAlphaMeasurementIsSane) {
  const double alpha = MeasureAlphaOnHost(2);
  EXPECT_GE(alpha, 1.0);
  EXPECT_LE(alpha, 100.0);
}

TEST(OptimizerTest, Figure14PlanTableSvmFamily) {
  // SVM/LR/LS on text + dense benchmarks: Row-wise, PerNode,
  // FullReplication (everything fits local2's 32 GB/node at bench scale).
  const numa::Topology topo = numa::Local2();
  models::SvmSpec svm;
  models::LogisticSpec lr;
  models::LeastSquaresSpec ls;
  for (const models::ModelSpec* spec :
       {static_cast<const models::ModelSpec*>(&svm),
        static_cast<const models::ModelSpec*>(&lr),
        static_cast<const models::ModelSpec*>(&ls)}) {
    for (const data::Dataset& d :
         {data::Reuters(0.1), data::Rcv1(0.002), data::Music(0.002)}) {
      const PlanChoice c = ChoosePlan(d, *spec, topo);
      EXPECT_EQ(c.access, AccessMethod::kRowWise)
          << spec->name() << "/" << d.name;
      EXPECT_EQ(c.model_rep, ModelReplication::kPerNode)
          << spec->name() << "/" << d.name;
      EXPECT_EQ(c.data_rep, DataReplication::kFullReplication)
          << spec->name() << "/" << d.name;
    }
  }
}

TEST(OptimizerTest, Figure14PlanTableLpQp) {
  // LP/QP on graphs: Column(-to-row), PerMachine, FullReplication.
  const numa::Topology topo = numa::Local2();
  models::LpSpec lp;
  models::QpSpec qp;
  {
    const PlanChoice c = ChoosePlan(data::AmazonLp(0.002), lp, topo);
    EXPECT_EQ(c.access, AccessMethod::kColToRow);
    EXPECT_EQ(c.model_rep, ModelReplication::kPerMachine);
    EXPECT_EQ(c.data_rep, DataReplication::kFullReplication);
  }
  {
    const PlanChoice c = ChoosePlan(data::GoogleQp(0.002), qp, topo);
    EXPECT_EQ(c.access, AccessMethod::kColWise);
    EXPECT_EQ(c.model_rep, ModelReplication::kPerMachine);
    EXPECT_EQ(c.data_rep, DataReplication::kFullReplication);
  }
}

TEST(OptimizerTest, HugeDatasetFallsBackToSharding) {
  // A topology with almost no RAM forces Sharding.
  numa::Topology tiny = numa::Local2();
  tiny.ram_per_node_gb = 1e-6;
  const PlanChoice c = ChoosePlan(data::Rcv1(0.002), models::SvmSpec(), tiny);
  EXPECT_EQ(c.data_rep, DataReplication::kSharding);
}

TEST(OptimizerTest, ApplyChoiceCopiesFields) {
  PlanChoice c;
  c.access = AccessMethod::kColWise;
  c.model_rep = ModelReplication::kPerMachine;
  c.data_rep = DataReplication::kSharding;
  engine::EngineOptions opts;
  ApplyChoice(c, &opts);
  EXPECT_EQ(opts.access, AccessMethod::kColWise);
  EXPECT_EQ(opts.model_rep, ModelReplication::kPerMachine);
  EXPECT_EQ(opts.data_rep, DataReplication::kSharding);
}

TEST(OptimizerTest, RationaleMentionsDecision) {
  const PlanChoice c =
      ChoosePlan(data::Reuters(0.1), models::SvmSpec(), numa::Local2());
  EXPECT_NE(c.rationale.find("Row-wise"), std::string::npos);
  EXPECT_NE(c.rationale.find("PerNode"), std::string::npos);
}

// Property: the optimizer picks the lower-cost method for whatever the
// dataset shape is (consistency of ChooseAccessMethod with the tables).
class CostConsistency : public ::testing::TestWithParam<double> {};

TEST_P(CostConsistency, ChosenMethodHasMinimalCost) {
  const double alpha = GetParam();
  const data::Dataset d = data::Reuters(0.1);
  models::SvmSpec svm;
  const auto stats = StatsOf(d);
  const AccessMethod chosen = ChooseAccessMethod(stats, svm, alpha);
  auto cost = [&](AccessMethod m) {
    return EstimateAccessCost(stats, m, svm.RowWriteSparsity(),
                              svm.ColumnStepMaintainsAux())
        .Total(alpha);
  };
  const double chosen_cost = cost(chosen);
  for (AccessMethod m : {AccessMethod::kRowWise, AccessMethod::kColWise,
                         AccessMethod::kColToRow}) {
    EXPECT_LE(chosen_cost, cost(m)) << "alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, CostConsistency,
                         ::testing::Values(1.0, 4.0, 8.0, 12.0, 50.0, 100.0));

// --- serving replication chooser (paper Sec. 3.2-3.3, serving side) -------

ServingTrafficEstimate Traffic(matrix::Index dim, double reads_per_publish) {
  ServingTrafficEstimate t;
  t.dim = dim;
  t.reads_per_publish = reads_per_publish;
  return t;
}

/// The registration-time period: the estimate's rows against one publish.
PlacementChoice ModelPlacementFor(const numa::Topology& topo,
                                  const ServingTrafficEstimate& t) {
  return ChooseModelPlacement(topo, t, t.reads_per_publish, /*publishes=*/1.0);
}

TEST(ServingReplicationTest, Local8ReadHeavyPicksPerNode) {
  // The acceptance case, checked against the memory model's own numbers:
  // on the paper's 8-socket local8, a read-heavy family under kPerMachine
  // funnels 7/8 of all model reads through one interconnect, so its
  // period cost has a hard QPI lower bound that kPerNode (all-local
  // reads) beats outright.
  const numa::Topology topo = numa::Local8();
  const ServingTrafficEstimate t = Traffic(4096, /*reads_per_publish=*/4096);
  const PlacementChoice c = ModelPlacementFor(topo, t);
  EXPECT_TRUE(c.replicate);
  EXPECT_LT(c.replicate_cost_sec, c.share_cost_sec);
  EXPECT_FALSE(c.rationale.empty());

  // The kPerMachine cost is bounded below by the interconnect transfer
  // the memory model charges: reads from the 7 remote sockets, one model
  // stream per flushed batch.
  const double model_bytes = 4096.0 * sizeof(double);
  const double batches = t.reads_per_publish / t.expected_batch_rows;
  const double remote_bytes = batches * (7.0 / 8.0) * model_bytes;
  const double qpi_floor_sec = remote_bytes / (topo.qpi_gbps * 1e9);
  EXPECT_GE(c.share_cost_sec, qpi_floor_sec * 0.999);
  // And kPerNode dodges it entirely: its cost stays well under the floor.
  EXPECT_LT(c.replicate_cost_sec, qpi_floor_sec);
}

TEST(ServingReplicationTest, RepublishDominatedPicksPerMachine) {
  // A family that republishes constantly and serves almost no reads:
  // replicating every publish 8x costs 8x the write bandwidth for no
  // read-locality payoff.
  const PlacementChoice c = ModelPlacementFor(
      numa::Local8(), Traffic(1 << 20, /*reads_per_publish=*/0.0));
  EXPECT_FALSE(c.replicate);
  EXPECT_LT(c.share_cost_sec, c.replicate_cost_sec);
}

TEST(ServingReplicationTest, SingleSocketKeepsOneCopy) {
  numa::Topology topo = numa::Local2();
  topo.num_nodes = 1;  // one socket: the strategies are byte-identical
  const PlacementChoice c = ModelPlacementFor(topo, Traffic(1024, 4096.0));
  EXPECT_FALSE(c.replicate);
  EXPECT_NE(c.rationale.find("single socket"), std::string::npos);
}

TEST(ServingReplicationTest, OversizedModelCannotDoubleBuffer) {
  // local2 has 32 GB per node; a 24 GB replica cannot hot-swap (old +
  // new both live) under kPerNode, whatever the traffic says.
  const PlacementChoice c = ModelPlacementFor(
      numa::Local2(), Traffic(3'000'000'000u, /*reads_per_publish=*/1e6));
  EXPECT_FALSE(c.replicate);
  EXPECT_NE(c.rationale.find("double-buffer"), std::string::npos);
}

TEST(ServingReplicationTest, ReadShareMovesTheDecision) {
  // Sweeping the read/write asymmetry flips the choice exactly once:
  // once a family is read-heavy enough for kPerNode, more reads can only
  // reinforce it (the QPI term grows linearly while the publish term is
  // fixed).
  const numa::Topology topo = numa::Local8();
  bool seen_per_node = false;
  for (const double rpp : {0.0, 1.0, 64.0, 1024.0, 65536.0}) {
    const PlacementChoice c = ModelPlacementFor(topo, Traffic(4096, rpp));
    if (c.replicate) {
      seen_per_node = true;
    } else {
      EXPECT_FALSE(seen_per_node)
          << "choice flipped back to PerMachine at " << rpp;
    }
  }
  EXPECT_TRUE(seen_per_node) << "no read share ever justified replication";
}

// --- feature-store placement chooser (Fig. 9's axis, serving side) --------

/// The registration-time period: `reads_per_refresh` gathers against one
/// full-table refresh.
PlacementChoice StorePlacementFor(const numa::Topology& topo,
                                  matrix::Index rows, matrix::Index dim,
                                  double reads_per_refresh) {
  return ChooseStorePlacement(topo, rows, dim, reads_per_refresh,
                              /*refreshes=*/1.0, /*churn=*/1.0);
}

TEST(StorePlacementTest, Local8ReadHeavyPicksReplicated) {
  // The Fig. 9 FullReplication regime, serving side: under kSharded a
  // balanced spray of row gathers sends 7/8 of all feature bytes over
  // the one shared interconnect, so the period cost has a hard QPI lower
  // bound that kReplicated (all-local gathers) beats outright.
  const numa::Topology topo = numa::Local8();
  const double reads_per_refresh = 65536.0;
  const PlacementChoice c =
      StorePlacementFor(topo, 4096, 2048, reads_per_refresh);
  EXPECT_TRUE(c.replicate);
  EXPECT_LT(c.replicate_cost_sec, c.share_cost_sec);
  EXPECT_FALSE(c.rationale.empty());
  EXPECT_DOUBLE_EQ(c.copy_bytes, 4096.0 * 2048.0 * sizeof(double));

  // The kSharded cost is bounded below by the interconnect transfer the
  // memory model charges for the remote 7/8 share of gathers.
  const double remote_bytes =
      reads_per_refresh * 2048.0 * sizeof(double) * (7.0 / 8.0);
  const double qpi_floor_sec = remote_bytes / (topo.qpi_gbps * 1e9);
  EXPECT_GE(c.share_cost_sec, qpi_floor_sec * 0.999);
  EXPECT_LT(c.replicate_cost_sec, qpi_floor_sec);
}

TEST(StorePlacementTest, RefreshDominatedPicksSharded) {
  // A table rebuilt constantly against almost no gathers: replicating
  // every refresh 8x costs 8x the write bandwidth for no payoff.
  const PlacementChoice c = StorePlacementFor(
      numa::Local8(), 1 << 16, 1024, /*reads_per_refresh=*/0.0);
  EXPECT_FALSE(c.replicate);
  EXPECT_LT(c.share_cost_sec, c.replicate_cost_sec);
}

TEST(StorePlacementTest, SingleSocketKeepsOneShard) {
  numa::Topology topo = numa::Local2();
  topo.num_nodes = 1;  // one socket: one shard is the whole table
  const PlacementChoice c = StorePlacementFor(topo, 1024, 64, 65536.0);
  EXPECT_FALSE(c.replicate);
  EXPECT_NE(c.rationale.find("single socket"), std::string::npos);
}

TEST(StorePlacementTest, OversizedTableCannotDoubleBuffer) {
  // local2 has 32 GB per node; a ~24 GB table cannot hot-swap whole
  // (old + new both live) under kReplicated, whatever the traffic says.
  const PlacementChoice c = StorePlacementFor(
      numa::Local2(), 3'000'000u, 1000u, /*reads_per_refresh=*/1e7);
  EXPECT_FALSE(c.replicate);
  EXPECT_NE(c.rationale.find("double-buffer"), std::string::npos);
}

TEST(StorePlacementTest, GatherShareMovesTheDecision) {
  // Sweeping gathers-per-refresh flips the choice exactly once: once the
  // store is read-heavy enough to replicate, more gathers can only
  // reinforce it (the QPI term grows linearly, the refresh term is
  // fixed).
  const numa::Topology topo = numa::Local8();
  bool seen_replicated = false;
  for (const double rpr : {0.0, 1.0, 64.0, 4096.0, 1e6}) {
    const PlacementChoice c = StorePlacementFor(topo, 4096, 2048, rpr);
    if (c.replicate) {
      seen_replicated = true;
    } else {
      EXPECT_FALSE(seen_replicated)
          << "choice flipped back to Sharded at " << rpr;
    }
  }
  EXPECT_TRUE(seen_replicated) << "no gather share ever justified replication";
}

}  // namespace
}  // namespace dw::opt
