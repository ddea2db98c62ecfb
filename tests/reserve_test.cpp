// Tests for pm::reserve: the §IV weighting functions (Figure 2 curves,
// properties 1–5) and the congestion-weighted reserve pricer (Eq. 4).
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/fleet.h"
#include "common/check.h"
#include "reserve/reserve_pricer.h"
#include "reserve/weighting.h"

namespace pm::reserve {
namespace {

TEST(WeightingTest, Phi1MatchesFormula) {
  auto phi = MakeExp2Weighting();
  EXPECT_NEAR((*phi)(0.0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR((*phi)(0.5), 1.0, 1e-12);
  EXPECT_NEAR((*phi)(1.0), std::exp(1.0), 1e-12);
  EXPECT_EQ(phi->Name(), "exp2");
}

TEST(WeightingTest, Phi2MatchesFormula) {
  auto phi = MakeExpWeighting();
  EXPECT_NEAR((*phi)(0.0), std::exp(-0.5), 1e-12);
  EXPECT_NEAR((*phi)(0.5), 1.0, 1e-12);
  EXPECT_NEAR((*phi)(1.0), std::exp(0.5), 1e-12);
}

TEST(WeightingTest, Phi3MatchesFormula) {
  auto phi = MakeReciprocalWeighting();
  EXPECT_NEAR((*phi)(0.0), 1.0 / 1.5, 1e-12);
  EXPECT_NEAR((*phi)(0.5), 1.0, 1e-12);
  EXPECT_NEAR((*phi)(1.0), 2.0, 1e-12);
}

TEST(WeightingTest, DynamicRangeK) {
  // Property 5: φ(100%) = k·φ(0%).
  EXPECT_NEAR(MakeExp2Weighting()->DynamicRange(), std::exp(2.0), 1e-12);
  EXPECT_NEAR(MakeExpWeighting()->DynamicRange(), std::exp(1.0), 1e-12);
  EXPECT_NEAR(MakeReciprocalWeighting()->DynamicRange(), 3.0, 1e-12);
}

TEST(WeightingTest, PaperCurvesSatisfyAllProperties) {
  EXPECT_EQ(CheckWeightingProperties(*MakeExp2Weighting()), "");
  EXPECT_EQ(CheckWeightingProperties(*MakeExpWeighting()), "");
  EXPECT_EQ(CheckWeightingProperties(*MakeReciprocalWeighting()), "");
}

TEST(WeightingTest, SteepnessOrderingOfPaperCurves) {
  // Figure 2: φ1 is the steepest at the congested end.
  auto phi1 = MakeExp2Weighting();
  auto phi2 = MakeExpWeighting();
  EXPECT_GT((*phi1)(0.99), (*phi2)(0.99));
  EXPECT_LT((*phi1)(0.01), (*phi2)(0.01));
}

TEST(WeightingTest, FlatFailsSignalingProperties) {
  // The ablation control must *fail* property 2 (no premium on congested
  // pools).
  const std::string failure =
      CheckWeightingProperties(*MakeFlatWeighting());
  EXPECT_NE(failure.find("property 2"), std::string::npos);
}

/// A test-only curve over any callable, for the negative property checks.
template <typename Fn>
class LambdaWeighting final : public WeightingFunction {
 public:
  explicit LambdaWeighting(Fn fn) : fn_(fn) {}
  double operator()(double x) const override { return fn_(x); }
  std::string_view Name() const override { return "test"; }

 private:
  Fn fn_;
};

TEST(WeightingTest, DecreasingCurveFailsProperty1) {
  const LambdaWeighting bad([](double x) { return 2.0 - x; });
  EXPECT_NE(CheckWeightingProperties(bad).find("property 1"),
            std::string::npos);
}

TEST(WeightingTest, ConcaveCurveFailsProperty4) {
  // Satisfies properties 1–3 (monotone, crosses 1 at the threshold) but
  // rises sqrt-fast just above it and flattens toward 100 % — the
  // opposite of the congestion emphasis property 4 demands.
  const LambdaWeighting bad([](double x) {
    return x <= 0.5 ? 2.0 * x : 1.0 + std::sqrt(x - 0.5);
  });
  const std::string failure = CheckWeightingProperties(bad);
  EXPECT_NE(failure.find("property 4"), std::string::npos) << failure;
}

TEST(WeightingTest, ExcessiveDynamicRangeFailsProperty5) {
  const LambdaWeighting bad(
      [](double x) { return std::exp(10.0 * (x - 0.5)); });
  const std::string failure =
      CheckWeightingProperties(bad, 0.5, /*max_dynamic_range=*/64.0);
  EXPECT_NE(failure.find("property 5"), std::string::npos);
}

// ------------------------------------------------------------------ pricer --

cluster::Fleet TwoClusterFleet() {
  std::vector<cluster::Cluster> clusters;
  clusters.push_back(cluster::Cluster::Homogeneous(
      "hot", 2, cluster::TaskShape{16.0, 64.0, 8.0}));
  clusters.push_back(cluster::Cluster::Homogeneous(
      "cold", 2, cluster::TaskShape{16.0, 64.0, 8.0}));
  return cluster::Fleet(std::move(clusters),
                        cluster::TaskShape{10.0, 1.5, 0.8});
}

TEST(ReservePricerTest, AppliesEquation4) {
  PoolRegistry reg;
  reg.Intern("c", ResourceKind::kCpu);
  ReservePricer pricer(MakeExp2Weighting());
  const std::vector<double> util = {0.75};
  const std::vector<double> cost = {10.0};
  const std::vector<double> prices = pricer.Price(reg, util, cost);
  EXPECT_NEAR(prices[0], std::exp(2.0 * 0.25) * 10.0, 1e-9);
}

TEST(ReservePricerTest, CongestedPoolsCostMoreThanIdle) {
  cluster::Fleet fleet = TwoClusterFleet();
  // Load the hot cluster to ~75% CPU.
  cluster::Job job;
  job.id = 1;
  job.team = "t";
  job.shape = {2.0, 4.0, 0.5};
  job.tasks = 12;
  ASSERT_TRUE(fleet.AddJob("hot", job));

  ReservePricer pricer(MakeExp2Weighting());
  const std::vector<double> prices = pricer.PriceFleet(fleet);
  const auto hot_cpu =
      fleet.registry().Find(PoolKey{"hot", ResourceKind::kCpu});
  const auto cold_cpu =
      fleet.registry().Find(PoolKey{"cold", ResourceKind::kCpu});
  EXPECT_GT(prices[*hot_cpu], prices[*cold_cpu]);
  // Idle pool is discounted below cost; congested priced above.
  EXPECT_LT(prices[*cold_cpu], 10.0);
  EXPECT_GT(prices[*hot_cpu], 10.0);
}

TEST(ReservePricerTest, ClampsUtilizationToUnitInterval) {
  PoolRegistry reg;
  reg.Intern("c", ResourceKind::kCpu);
  ReservePricer pricer(MakeReciprocalWeighting());
  const std::vector<double> util = {1.7};  // Bad input clamps to 1.0.
  const std::vector<double> cost = {1.0};
  EXPECT_NEAR(pricer.Price(reg, util, cost)[0], 2.0, 1e-9);
}

TEST(ReservePricerTest, SizeMismatchThrows) {
  PoolRegistry reg;
  reg.Intern("c", ResourceKind::kCpu);
  ReservePricer pricer(MakeExpWeighting());
  const std::vector<double> util = {0.5, 0.5};
  const std::vector<double> cost = {1.0};
  EXPECT_THROW(pricer.Price(reg, util, cost), pm::CheckFailure);
}

TEST(ReservePricerTest, NegativeCostThrows) {
  PoolRegistry reg;
  reg.Intern("c", ResourceKind::kCpu);
  ReservePricer pricer(MakeExpWeighting());
  const std::vector<double> util = {0.5};
  const std::vector<double> cost = {-1.0};
  EXPECT_THROW(pricer.Price(reg, util, cost), pm::CheckFailure);
}

}  // namespace
}  // namespace pm::reserve
