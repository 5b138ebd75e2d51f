// The paper's qualitative claims, asserted on the cells the figure code
// computes (bench/figures.h) -- the same cells bench_figures prints. Each
// figure runs at a small dataset scale fixed from the test's time budget.
// Claims on host wall-clock cells and known deviations are printed by
// bench_figures and not asserted here.
#include <gtest/gtest.h>

#include "bench/figures.h"

namespace dw::bench {
namespace {

void Check(const Figure& fig) {
  int asserted = 0;
  for (const Claim& c : fig.claims) {
    if (c.gate != Gate::kAsserted) continue;
    ++asserted;
    EXPECT_TRUE(c.holds) << c.text << "\n  paper: " << c.paper
                         << "; here: " << c.measured;
  }
  EXPECT_GT(asserted, 0);
}

// Scales: 0.25 shrinks the datasets to their floors (RCV1 2,000 rows).
// Figs. 8, 9, 16 and 17 run at the bench default, 1.0: at 0.25 their
// raced epoch counts no longer separate, and their row-wise runs are cheap.
TEST(ClaimsTest, Fig03Machines) { Check(Fig03Machines(0.25)); }
TEST(ClaimsTest, Fig06CostModel) { Check(Fig06CostModel(0.25)); }
TEST(ClaimsTest, Fig07AccessMethods) { Check(Fig07AccessMethods(0.25)); }
TEST(ClaimsTest, Fig08ModelReplication) { Check(Fig08ModelReplication(1.0)); }
TEST(ClaimsTest, Fig09DataReplication) { Check(Fig09DataReplication(1.0)); }
TEST(ClaimsTest, Fig12Tradeoffs) { Check(Fig12Tradeoffs(0.25)); }
TEST(ClaimsTest, Fig14OptimizerPlans) { Check(Fig14OptimizerPlans(0.25)); }
TEST(ClaimsTest, Fig15ArchAccessRatio) { Check(Fig15ArchAccessRatio(0.25)); }
TEST(ClaimsTest, Fig16ReplicationArch) { Check(Fig16ReplicationArch(1.0)); }
TEST(ClaimsTest, Fig17GibbsNn) { Check(Fig17GibbsNn(1.0)); }
TEST(ClaimsTest, Fig20Speedup) { Check(Fig20Speedup(0.25)); }
TEST(ClaimsTest, Fig22Importance) { Check(Fig22Importance(0.25)); }
TEST(ClaimsTest, AlphaEstimation) { Check(AlphaEstimation(0.25)); }
TEST(ClaimsTest, AppendixStorage) { Check(AppendixStorage(0.25)); }

}  // namespace
}  // namespace dw::bench
