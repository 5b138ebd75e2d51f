// Cross-module integration tests: optimizer-driven end-to-end training,
// grid search, baseline orderings, and the qualitative claims each paper
// figure rests on, exercised at test scale.
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "engine/engine.h"
#include "engine/grid_search.h"
#include "models/glm.h"
#include "models/graph_opt.h"
#include "opt/optimizer.h"

namespace dw {
namespace {

using data::Dataset;
using engine::AccessMethod;
using engine::DataReplication;
using engine::EngineOptions;
using engine::ModelReplication;
using engine::RunResult;

EngineOptions TestOptions() {
  EngineOptions o;
  o.topology = numa::Local2();
  o.topology.cores_per_node = 2;
  o.seed = 11;
  return o;
}

TEST(IntegrationTest, OptimizerPlanTrainsEveryModelFamily) {
  struct Case {
    Dataset dataset;
    std::unique_ptr<models::ModelSpec> spec;
    double step;
  };
  std::vector<Case> cases;
  cases.push_back({data::Rcv1(0.0015), std::make_unique<models::SvmSpec>(),
                   0.1});
  cases.push_back({data::Reuters(0.1),
                   std::make_unique<models::LogisticSpec>(), 0.1});
  cases.push_back({data::Music(0.002),
                   std::make_unique<models::LeastSquaresSpec>(), 0.005});
  cases.push_back({data::AmazonLp(0.0015), std::make_unique<models::LpSpec>(),
                   0.05});
  cases.push_back({data::GoogleQp(0.001), std::make_unique<models::QpSpec>(),
                   0.3});

  for (const Case& c : cases) {
    EngineOptions o = TestOptions();
    o.step_size = c.step;
    const opt::PlanChoice plan =
        opt::ChoosePlan(c.dataset, *c.spec, o.topology);
    opt::ApplyChoice(plan, &o);
    engine::Engine eng(&c.dataset, c.spec.get(), o);
    ASSERT_TRUE(eng.Init().ok()) << c.spec->name();
    engine::RunConfig cfg;
    cfg.max_epochs = 12;
    const RunResult rr = eng.Run(cfg);
    EXPECT_LT(rr.epochs.back().loss, rr.epochs.front().loss)
        << c.spec->name() << " under " << plan.rationale;
  }
}

TEST(IntegrationTest, GridSearchPicksAStableStep) {
  Dataset d;
  d.a = data::MakeDenseTable({.rows = 300, .cols = 12, .seed = 5});
  d.b = data::PlantRegressionTargets(d.a, 0.05, 6);
  models::LeastSquaresSpec ls;
  // 3.0 diverges for LS on this data; the grid must not select it.
  const auto gs = engine::GridSearchStepSize(
      d, ls, TestOptions(), 20, /*optimal_loss=*/0.0013,
      {3.0, 0.03, 0.003});
  EXPECT_LT(gs.best_step, 3.0);
  EXPECT_LT(gs.best_run.BestLoss(), 0.05);
}

// Figure 12(a)'s claim at test scale: the wrong access method is orders
// of magnitude slower in simulated time for LP.
TEST(IntegrationTest, AccessMethodMattersForLp) {
  const Dataset lp_data = data::AmazonLp(0.002);
  models::LpSpec lp;
  EngineOptions o = TestOptions();
  o.step_size = 0.05;

  o.access = AccessMethod::kColToRow;
  o.model_rep = ModelReplication::kPerMachine;
  engine::Engine col(&lp_data, &lp, o);
  ASSERT_TRUE(col.Init().ok());
  engine::RunConfig cfg;
  cfg.max_epochs = 10;
  const RunResult col_rr = col.Run(cfg);

  o.access = AccessMethod::kRowWise;
  engine::Engine row(&lp_data, &lp, o);
  ASSERT_TRUE(row.Init().ok());
  const RunResult row_rr = row.Run(cfg);

  // Column access reaches a loss in 10 epochs that row access has not.
  EXPECT_LT(col_rr.BestLoss(), row_rr.BestLoss());
}

// Figure 13's mechanism at test scale: PerMachine generates cross-socket
// traffic that PerNode avoids entirely.
TEST(IntegrationTest, PerNodeEliminatesCrossSocketModelTraffic) {
  const Dataset d = data::Rcv1(0.0015);
  models::SvmSpec svm;
  EngineOptions o = TestOptions();

  o.model_rep = ModelReplication::kPerNode;
  engine::Engine pn(&d, &svm, o);
  ASSERT_TRUE(pn.Init().ok());
  (void)pn.RunEpochNoEval();

  o.model_rep = ModelReplication::kPerMachine;
  engine::Engine pm(&d, &svm, o);
  ASSERT_TRUE(pm.Init().ok());
  (void)pm.RunEpochNoEval();

  EXPECT_EQ(pn.last_epoch_sim().traffic.Total().shared_write_bytes, 0u);
  EXPECT_GT(pm.last_epoch_sim().traffic.Total().shared_write_bytes, 0u);
  EXPECT_GT(pm.last_epoch_sim().traffic.Total().remote_dram_requests(),
            pn.last_epoch_sim().traffic.Total().remote_dram_requests());
}

// GLM f_col and f_ctr implement the same mathematical update: starting
// from the same model with a fresh aux, one column step must produce the
// same coordinate value.
TEST(IntegrationTest, GlmColAndCtrAgree) {
  const Dataset d = data::Reuters(0.1);
  const matrix::CscMatrix csc = matrix::CscMatrix::FromCsr(d.a);
  for (const auto* spec :
       {static_cast<const models::ModelSpec*>(new models::SvmSpec()),
        static_cast<const models::ModelSpec*>(new models::LogisticSpec()),
        static_cast<const models::ModelSpec*>(
            new models::LeastSquaresSpec())}) {
    std::vector<double> m_col(d.a.cols(), 0.01);
    std::vector<double> m_ctr(d.a.cols(), 0.01);
    std::vector<double> aux(spec->AuxDim(d));
    spec->RefreshAux(d, m_col.data(), aux.data());
    models::StepContext ctx{&d, &csc, 0.5};
    for (matrix::Index j = 0; j < 20; ++j) {
      spec->ColStep(ctx, j, m_col.data(), aux.data());
      spec->CtrStep(ctx, j, m_ctr.data(), nullptr);
    }
    for (matrix::Index j = 0; j < 20; ++j) {
      EXPECT_NEAR(m_col[j], m_ctr[j], 1e-9) << spec->name() << " col " << j;
    }
    delete spec;
  }
}

// The engine's FullReplication must process #nodes x the data per epoch;
// the traffic counters prove it.
TEST(IntegrationTest, FullReplicationDoublesEpochTraffic) {
  const Dataset d = data::Reuters(0.1);
  models::SvmSpec svm;
  EngineOptions o = TestOptions();

  o.data_rep = DataReplication::kSharding;
  engine::Engine shard(&d, &svm, o);
  ASSERT_TRUE(shard.Init().ok());
  const auto shard_rec = shard.RunEpochNoEval();

  o.data_rep = DataReplication::kFullReplication;
  engine::Engine full(&d, &svm, o);
  ASSERT_TRUE(full.Init().ok());
  const auto full_rec = full.RunEpochNoEval();

  EXPECT_NEAR(static_cast<double>(full_rec.traffic.total_read_bytes()) /
                  shard_rec.traffic.total_read_bytes(),
              2.0, 0.01);  // local2 has 2 nodes
}

// Subsampled datasets slot straight into the engine (the Fig. 7(b)/16(b)
// sweep machinery).
TEST(IntegrationTest, SubsampledDatasetTrains) {
  const Dataset base = data::WithBinaryLabels(data::Music(0.002));
  const Dataset sub = data::SubsampleElements(base, 0.1, 3);
  models::SvmSpec svm;
  EngineOptions o = TestOptions();
  o.step_size = 0.05;
  engine::Engine eng(&sub, &svm, o);
  ASSERT_TRUE(eng.Init().ok());
  engine::RunConfig cfg;
  cfg.max_epochs = 10;
  const RunResult rr = eng.Run(cfg);
  EXPECT_LT(rr.epochs.back().loss, rr.epochs.front().loss);
}

// Baseline ordering at test scale (the Fig. 11 story): Hogwild! reaches a
// mid-range SVM loss faster than the bulk-synchronous MLlib style.
TEST(IntegrationTest, SgdBeatsMinibatchOnWallClock) {
  Dataset d;
  d.a = data::MakeDenseTable({.rows = 600, .cols = 16, .seed = 9});
  d.b = data::PlantClassificationLabels(d.a, 16, 0.02, 10);
  models::SvmSpec svm;
  baselines::BaselineOptions o;
  o.topology = numa::Local2();
  o.topology.cores_per_node = 1;
  o.max_epochs = 20;
  o.step_size = 0.05;
  const RunResult hog = baselines::RunHogwild(d, svm, o);
  o.step_size = 0.5;
  o.batch_fraction = 1.0;
  const RunResult mllib = baselines::RunMLlibStyle(d, svm, o);
  const double target = 0.35;
  EXPECT_LT(hog.WallSecToLoss(target), mllib.WallSecToLoss(target));
}

}  // namespace
}  // namespace dw
