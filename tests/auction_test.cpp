// Tests for pm::auction: proxies, increment policies, the ascending clock
// auction (Algorithm 1), settlement and the SYSTEM-constraint audit.
#include <gtest/gtest.h>

#include <cmath>

#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace pm::auction {
namespace {

using bid::Bid;
using bid::Bundle;
using bid::BundleItem;

Bid MakeBid(UserId user, std::vector<Bundle> bundles, double limit,
            std::string name = "") {
  Bid b;
  b.user = user;
  b.name = name.empty() ? "u" + std::to_string(user) : std::move(name);
  b.bundles = std::move(bundles);
  b.limit = limit;
  return b;
}

// ------------------------------------------------------------------ proxy --

TEST(ProxyTest, PicksCheapestBundle) {
  const Bid b = MakeBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, 100.0);
  BidderProxy proxy(&b);
  const std::vector<double> prices = {5.0, 3.0};
  const ProxyDecision d = proxy.Evaluate(prices);
  EXPECT_EQ(d.bundle_index, 1);
  EXPECT_DOUBLE_EQ(d.cost, 3.0);
}

TEST(ProxyTest, DropsOutAboveLimit) {
  const Bid b = MakeBid(0, {Bundle({{0, 2.0}})}, 10.0);
  BidderProxy proxy(&b);
  const std::vector<double> cheap = {4.9};
  const std::vector<double> expensive = {5.1};
  EXPECT_TRUE(proxy.Evaluate(cheap).Active());
  EXPECT_FALSE(proxy.Evaluate(expensive).Active());
}

TEST(ProxyTest, ExactLimitIsAffordable) {
  const Bid b = MakeBid(0, {Bundle({{0, 1.0}})}, 5.0);
  BidderProxy proxy(&b);
  const std::vector<double> prices = {5.0};
  EXPECT_TRUE(proxy.Evaluate(prices).Active());
}

TEST(ProxyTest, TieBreaksTowardLowestIndex) {
  const Bid b =
      MakeBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, 100.0);
  BidderProxy proxy(&b);
  const std::vector<double> prices = {2.0, 2.0};
  EXPECT_EQ(proxy.Evaluate(prices).bundle_index, 0);
}

TEST(ProxyTest, SellerStaysInWhileRevenueSufficient) {
  // Sells 5 units, wants at least 10: active while price >= 2.
  const Bid b = MakeBid(0, {Bundle({{0, -5.0}})}, -10.0);
  BidderProxy proxy(&b);
  const std::vector<double> good = {2.5};
  const std::vector<double> bad = {1.5};
  EXPECT_TRUE(proxy.Evaluate(good).Active());
  EXPECT_DOUBLE_EQ(proxy.Evaluate(good).cost, -12.5);
  EXPECT_FALSE(proxy.Evaluate(bad).Active());
}

TEST(ProxyTest, SellerPicksMostLucrativeBundle) {
  const Bid b =
      MakeBid(0, {Bundle({{0, -1.0}}), Bundle({{1, -1.0}})}, -1.0);
  BidderProxy proxy(&b);
  const std::vector<double> prices = {3.0, 8.0};
  // argmin cost: selling in pool 1 yields cost -8 < -3.
  EXPECT_EQ(proxy.Evaluate(prices).bundle_index, 1);
}

// ---------------------------------------------------------------- policies --

using Kind = ClockAuctionConfig::PolicyKind;

/// The increment rule ClockAuction::Run builds for `kind` over these
/// parameters, with one pool per base cost.
IncrementRule RuleOf(Kind kind, double alpha, double delta,
                     double floor = 1e-3,
                     std::vector<double> base_costs = {}) {
  ClockAuctionConfig config;
  config.policy_kind = kind;
  config.alpha = alpha;
  config.delta = delta;
  config.step_floor = floor;
  config.base_costs = std::move(base_costs);
  return IncrementRule(config, config.base_costs.size());
}

TEST(IncrementPolicyTest, AdditiveIsProportional) {
  const IncrementRule rule = RuleOf(Kind::kAdditive, 0.5, 0.05);
  const std::vector<double> excess = {2.0, -1.0, 0.0};
  const std::vector<double> prices = {1.0, 1.0, 1.0};
  std::vector<double> step(3);
  rule.ComputeStep(excess, prices, step);
  EXPECT_DOUBLE_EQ(step[0], 1.0);
  EXPECT_DOUBLE_EQ(step[1], 0.0);  // No step on satisfied pools.
  EXPECT_DOUBLE_EQ(step[2], 0.0);
}

TEST(IncrementPolicyTest, CappedAppliesEquation3) {
  const IncrementRule rule = RuleOf(Kind::kCapped, 1.0, 0.25);
  const std::vector<double> excess = {10.0, 0.1};
  const std::vector<double> prices = {1.0, 1.0};
  std::vector<double> step(2);
  rule.ComputeStep(excess, prices, step);
  EXPECT_DOUBLE_EQ(step[0], 0.25);  // min(10, 0.25).
  EXPECT_DOUBLE_EQ(step[1], 0.1);
}

TEST(IncrementPolicyTest, RelativeCapScalesWithPrice) {
  const IncrementRule rule = RuleOf(Kind::kRelativeCapped, 10.0, 0.10, 1e-3);
  const std::vector<double> excess = {5.0, 5.0};
  const std::vector<double> prices = {100.0, 0.0};
  std::vector<double> step(2);
  rule.ComputeStep(excess, prices, step);
  EXPECT_DOUBLE_EQ(step[0], 10.0);  // Cap 0.1·100 = 10.
  EXPECT_DOUBLE_EQ(step[1], 1e-3);  // Floor keeps zero prices moving.
}

TEST(IncrementPolicyTest, CostNormalizedScalesByRelativeCost) {
  // Costs 10 and 2: mean 6 → weights 10/6 and 2/6.
  const IncrementRule rule =
      RuleOf(Kind::kCostNormalized, 1.0, 0.6, 1e-3, {10.0, 2.0});
  const std::vector<double> excess = {100.0, 100.0};  // Saturate at δ.
  const std::vector<double> prices = {1.0, 1.0};
  std::vector<double> step(2);
  rule.ComputeStep(excess, prices, step);
  EXPECT_NEAR(step[0] / step[1], 5.0, 1e-12);  // Cost ratio preserved.
}

TEST(IncrementPolicyTest, CostNormalizedSizeMismatchThrows) {
  const IncrementRule rule =
      RuleOf(Kind::kCostNormalized, 1.0, 0.5, 1e-3, {1.0, 2.0});
  const std::vector<double> excess = {1.0};
  const std::vector<double> prices = {1.0};
  std::vector<double> step(1);
  EXPECT_THROW(rule.ComputeStep(excess, prices, step), CheckFailure);
}

TEST(IncrementPolicyTest, MultiplicativeGrowsGeometrically) {
  const IncrementRule rule = RuleOf(Kind::kMultiplicative, 1.0, 0.5, 0.01);
  const std::vector<double> excess = {10.0};
  const std::vector<double> prices = {4.0};
  std::vector<double> step(1);
  rule.ComputeStep(excess, prices, step);
  EXPECT_DOUBLE_EQ(step[0], 2.0);  // 4 · min(10, 0.5).
}

TEST(IncrementPolicyTest, InvalidParametersThrow) {
  EXPECT_THROW(RuleOf(Kind::kAdditive, 0.0, 0.05), CheckFailure);
  EXPECT_THROW(RuleOf(Kind::kCapped, 1.0, -0.1), CheckFailure);
  EXPECT_THROW(RuleOf(Kind::kRelativeCapped, 1.0, 0.1, 0.0), CheckFailure);
  EXPECT_THROW(RuleOf(Kind::kMultiplicative, 1.0, 0.0, 0.01), CheckFailure);
  EXPECT_THROW(RuleOf(Kind::kCostNormalized, 1.0, 0.5, 1e-3, {1.0, 0.0}),
               CheckFailure);
  ClockAuctionConfig config;
  config.policy_kind = Kind::kCostNormalized;
  config.base_costs = {1.0, 2.0};
  EXPECT_THROW(IncrementRule(config, 3), CheckFailure);  // One per pool.
}

TEST(IncrementPolicyTest, AdditiveReadsNeitherDeltaNorFloor) {
  // Each kind checks only the parameters it reads: additive runs with
  // δ and floor that every other kind rejects.
  const IncrementRule rule = RuleOf(Kind::kAdditive, 0.5, 0.0, 0.0);
  const std::vector<double> excess = {2.0};
  const std::vector<double> prices = {1.0};
  std::vector<double> step(1);
  rule.ComputeStep(excess, prices, step);
  EXPECT_DOUBLE_EQ(step[0], 1.0);

  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 5.0, "strong"),
      MakeBid(1, {Bundle({{0, 1.0}})}, 3.0, "weak"),
  };
  ClockAuctionConfig config;
  config.policy_kind = Kind::kAdditive;
  config.delta = 0.0;
  const ClockAuctionResult r = ClockAuction(bids, {1.0}, {1.0}).Run(config);
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.decisions[0].Active());
  EXPECT_FALSE(r.decisions[1].Active());
}

// ------------------------------------------------------------ clock auction --

ClockAuctionConfig FastConfig() {
  ClockAuctionConfig config;
  config.alpha = 0.5;
  config.delta = 0.10;
  config.policy_kind = ClockAuctionConfig::PolicyKind::kRelativeCapped;
  config.step_floor = 0.01;
  return config;
}

TEST(ClockAuctionTest, AmpleSupplySettlesAtReserve) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 5.0}})}, 100.0)};
  ClockAuction auction(bids, {10.0}, {2.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_DOUBLE_EQ(r.prices[0], 2.0);
  EXPECT_TRUE(r.decisions[0].Active());
}

TEST(ClockAuctionTest, ScarcityRaisesPriceUntilLoserDrops) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 5.0, "strong"),
      MakeBid(1, {Bundle({{0, 1.0}})}, 3.0, "weak"),
  };
  ClockAuction auction(bids, {1.0}, {1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.decisions[0].Active());
  EXPECT_FALSE(r.decisions[1].Active());
  EXPECT_GT(r.prices[0], 3.0);  // Above the loser's limit …
  EXPECT_LE(r.prices[0], 5.0 + 1e-9);  // … at or below the winner's.
  EXPECT_LE(r.excess[0], 1e-9);
}

TEST(ClockAuctionTest, ExactTieBothLose) {
  // §III.B: with one unit and two $1.00 bidders, the only fair outcome is
  // that both lose once the price passes 1.00.
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 1.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 1.0),
  };
  ClockAuction auction(bids, {1.0}, {0.5});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.decisions[0].Active());
  EXPECT_FALSE(r.decisions[1].Active());
}

TEST(ClockAuctionTest, SellerExtendsSupply) {
  // No operator supply; a seller provides 5 units, a buyer takes 3.
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 3.0}})}, 30.0, "buyer"),
      MakeBid(1, {Bundle({{0, -5.0}})}, -2.0, "seller"),
  };
  ClockAuction auction(bids, {0.0}, {1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(r.decisions[0].Active());
  EXPECT_TRUE(r.decisions[1].Active());
  EXPECT_LE(r.excess[0], 1e-9);
}

TEST(ClockAuctionTest, XorUserSwitchesToCheaperAlternative) {
  // User is indifferent between pools; congestion in pool 0 must push
  // them to pool 1.
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, 50.0, "flex"),
      MakeBid(1, {Bundle({{0, 1.0}})}, 50.0, "stuck"),
  };
  ClockAuction auction(bids, {1.0, 1.0}, {1.0, 1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  ASSERT_TRUE(r.decisions[0].Active());
  ASSERT_TRUE(r.decisions[1].Active());
  EXPECT_EQ(r.decisions[0].bundle_index, 1);  // Flex user moved.
  EXPECT_EQ(r.decisions[1].bundle_index, 0);
}

TEST(ClockAuctionTest, PricesNeverFallBelowReserve) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{1, 2.0}})}, 100.0)};
  ClockAuction auction(bids, {5.0, 5.0}, {3.0, 7.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  EXPECT_GE(r.prices[0], 3.0);
  EXPECT_GE(r.prices[1], 7.0);
}

TEST(ClockAuctionTest, OpposingTradersCanCycleForever) {
  // §III.C.3's contrived case: two traders leapfrogging each other's
  // price. T1 swaps A→B while p_A ≤ p_B; T2 swaps B→A while p_B ≤ p_A.
  // With additive steps the prices chase each other without ever
  // clearing; the round cap reports non-convergence.
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}, {1, -1.0}})}, 0.0, "swap-ab"),
      MakeBid(1, {Bundle({{0, -1.0}, {1, 1.0}})}, 0.0, "swap-ba"),
  };
  ClockAuction auction(bids, {0.0, 0.0}, {0.0, 0.5});
  ClockAuctionConfig config;
  config.policy_kind = ClockAuctionConfig::PolicyKind::kAdditive;
  config.alpha = 0.2;
  config.max_rounds = 500;
  const ClockAuctionResult r = auction.Run(config);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rounds, 500);
}

TEST(ClockAuctionTest, TrajectoryRecordsMonotonePrices) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 9.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 7.0),
  };
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionConfig config = FastConfig();
  config.record_trajectory = true;
  const ClockAuctionResult r = auction.Run(config);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(static_cast<int>(r.trajectory.size()), r.rounds);
  for (std::size_t t = 1; t < r.trajectory.size(); ++t) {
    EXPECT_GE(r.trajectory[t].prices[0], r.trajectory[t - 1].prices[0]);
  }
}

TEST(ClockAuctionTest, BisectionTightensClearingPrice) {
  // Winner at π=50, loser at π=30: the price only needs to pass 30.
  auto make_bids = [] {
    return std::vector<Bid>{
        MakeBid(0, {Bundle({{0, 1.0}})}, 50.0),
        MakeBid(1, {Bundle({{0, 1.0}})}, 30.0),
    };
  };
  ClockAuctionConfig coarse;
  coarse.policy_kind = ClockAuctionConfig::PolicyKind::kCapped;
  coarse.alpha = 1.0;
  coarse.delta = 8.0;  // Deliberately huge steps.

  ClockAuction auction(make_bids(), {1.0}, {1.0});
  const ClockAuctionResult plain = auction.Run(coarse);
  ClockAuctionConfig with_bisect = coarse;
  with_bisect.intra_round_bisection = true;
  const ClockAuctionResult tight = auction.Run(with_bisect);

  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(tight.converged);
  EXPECT_TRUE(tight.decisions[0].Active());
  EXPECT_GT(tight.prices[0], 30.0 - 1e-6);
  EXPECT_LE(tight.prices[0], plain.prices[0] + 1e-9);
  EXPECT_LT(tight.prices[0], 30.0 + 1.0);  // Near the marginal value.
  EXPECT_GT(tight.demand_evaluations, plain.demand_evaluations);
}

TEST(ClockAuctionTest, ParallelEvaluationMatchesSerial) {
  std::vector<Bid> bids;
  for (UserId u = 0; u < 40; ++u) {
    bids.push_back(MakeBid(
        u, {Bundle({{u % 4, 1.0 + u % 3}}), Bundle({{(u + 1) % 4, 2.0}})},
        10.0 + u));
  }
  ClockAuction auction(bids, {8.0, 8.0, 8.0, 8.0},
                       {1.0, 1.0, 1.0, 1.0});
  const ClockAuctionResult serial = auction.Run(FastConfig());
  ThreadPool pool(4);
  ClockAuctionConfig parallel_config = FastConfig();
  parallel_config.thread_pool = &pool;
  const ClockAuctionResult parallel = auction.Run(parallel_config);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.prices, parallel.prices);
  for (std::size_t u = 0; u < bids.size(); ++u) {
    EXPECT_EQ(serial.decisions[u].bundle_index,
              parallel.decisions[u].bundle_index);
  }
}

TEST(ClockAuctionTest, DemandEvaluationCounterIsExact) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 9.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 7.0),
      MakeBid(2, {Bundle({{0, 1.0}})}, 5.0),
  };
  ClockAuction auction(bids, {1.0}, {1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.demand_evaluations,
            static_cast<long long>(bids.size()) * r.rounds);
}

TEST(ClockAuctionTest, EmptyBidSetClearsImmediately) {
  ClockAuction auction({}, {5.0, 5.0}, {1.0, 2.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.prices, (std::vector<double>{1.0, 2.0}));
}

TEST(ClockAuctionTest, MismatchedVectorsThrow) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 5.0)};
  EXPECT_THROW(ClockAuction(bids, {1.0, 2.0}, {1.0}), CheckFailure);
  EXPECT_THROW(ClockAuction(bids, {-1.0}, {1.0}), CheckFailure);
  EXPECT_THROW(ClockAuction(bids, {1.0}, {-1.0}), CheckFailure);
}

TEST(ClockAuctionTest, InvalidBidSetThrows) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{3, 1.0}})}, 5.0)};
  EXPECT_THROW(ClockAuction(bids, {1.0}, {1.0}), CheckFailure);  // Pool 3.
}

TEST(ClockAuctionTest, RunIsIdempotent) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 9.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 7.0),
  };
  ClockAuction auction(bids, {1.0}, {1.0});
  const ClockAuctionResult a = auction.Run(FastConfig());
  const ClockAuctionResult b = auction.Run(FastConfig());
  EXPECT_EQ(a.prices, b.prices);
  EXPECT_EQ(a.rounds, b.rounds);
}

// -------------------------------------------------------------- settlement --

TEST(SettlementTest, WinnersPayLosersListed) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 2.0}})}, 40.0, "win"),
      MakeBid(1, {Bundle({{0, 2.0}})}, 3.0, "lose"),
  };
  ClockAuction auction(bids, {2.0}, {2.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  const Settlement s = Settle(auction, r);
  ASSERT_EQ(s.awards.size(), 1u);
  EXPECT_EQ(s.awards[0].user, 0u);
  EXPECT_NEAR(s.awards[0].payment, 2.0 * r.prices[0], 1e-9);
  ASSERT_EQ(s.losers.size(), 1u);
  EXPECT_EQ(s.losers[0], 1u);
  EXPECT_DOUBLE_EQ(s.settled_fraction, 0.5);
  EXPECT_NEAR(s.operator_revenue, s.awards[0].payment, 1e-12);
  EXPECT_NEAR(s.supply_sold[0], 2.0, 1e-9);
}

TEST(SettlementTest, PremiumMatchesEquation5) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 4.0}})}, 50.0)};
  ClockAuction auction(bids, {10.0}, {2.5});
  const ClockAuctionResult r = auction.Run(FastConfig());
  const Settlement s = Settle(auction, r);
  ASSERT_EQ(s.awards.size(), 1u);
  const double payment = s.awards[0].payment;  // 4 · 2.5 = 10.
  EXPECT_NEAR(s.awards[0].premium, std::abs(50.0 - payment) / payment,
              1e-12);
}

TEST(SettlementTest, SellerReceivesAndSurplusAbsorbed) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 30.0, "buyer"),
      MakeBid(1, {Bundle({{0, -4.0}})}, -2.0, "seller"),
  };
  ClockAuction auction(bids, {0.0}, {1.5});
  const ClockAuctionResult r = auction.Run(FastConfig());
  const Settlement s = Settle(auction, r);
  ASSERT_EQ(s.awards.size(), 2u);
  double buyer_pay = 0.0, seller_pay = 0.0;
  for (const Award& a : s.awards) {
    (a.user == 0 ? buyer_pay : seller_pay) = a.payment;
  }
  EXPECT_GT(buyer_pay, 0.0);
  EXPECT_LT(seller_pay, 0.0);
  EXPECT_NEAR(s.surplus_absorbed[0], 3.0, 1e-9);  // Sold 4, bought 1.
  EXPECT_NEAR(s.operator_revenue, buyer_pay + seller_pay, 1e-12);
  EXPECT_LT(s.operator_revenue, 0.0);  // Operator paid for the surplus.
}

TEST(SettlementTest, PremiumStatsAggregates) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 12.0),
      MakeBid(1, {Bundle({{1, 1.0}})}, 15.0),
  };
  ClockAuction auction(bids, {5.0, 5.0}, {10.0, 10.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  const Settlement s = Settle(auction, r);
  const PremiumStats stats = ComputePremiumStats(s);
  EXPECT_EQ(stats.count, 2u);
  // Payments are 10 each; premiums 0.2 and 0.5.
  EXPECT_NEAR(stats.median, 0.35, 1e-9);
  EXPECT_NEAR(stats.mean, 0.35, 1e-9);
}

TEST(SettlementTest, MismatchedResultThrows) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 5.0)};
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionResult bogus;
  EXPECT_THROW(Settle(auction, bogus), CheckFailure);
}

// ------------------------------------------------------------ system check --

TEST(SystemCheckTest, ConvergedAuctionIsFeasible) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, 20.0),
      MakeBid(1, {Bundle({{0, 2.0}})}, 9.0),
      MakeBid(2, {Bundle({{1, -1.0}})}, -0.5),
  };
  ClockAuction auction(bids, {2.0, 1.0}, {1.0, 1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  const SystemCheckResult check = CheckSystemConstraints(auction, r);
  EXPECT_TRUE(check.Feasible()) << check.ToString();
}

TEST(SystemCheckTest, DetectsOversubscription) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 2.0}})}, 100.0),
      MakeBid(1, {Bundle({{0, 2.0}})}, 100.0),
  };
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionResult forged;
  forged.prices = {1.0};
  forged.decisions = {ProxyDecision{0, 2.0}, ProxyDecision{0, 2.0}};
  forged.excess = {3.0};
  const SystemCheckResult check = CheckSystemConstraints(auction, forged);
  ASSERT_FALSE(check.Feasible());
  EXPECT_NE(check.ToString().find("(2)"), std::string::npos);
}

TEST(SystemCheckTest, DetectsWinnerOverLimit) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 2.0)};
  ClockAuction auction(bids, {5.0}, {1.0});
  ClockAuctionResult forged;
  forged.prices = {3.0};  // Winner pays 3 > limit 2.
  forged.decisions = {ProxyDecision{0, 3.0}};
  forged.excess = {-4.0};
  const SystemCheckResult check = CheckSystemConstraints(auction, forged);
  ASSERT_FALSE(check.Feasible());
  EXPECT_NE(check.ToString().find("(3)"), std::string::npos);
}

TEST(SystemCheckTest, DetectsNonCheapestAward) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, 20.0)};
  ClockAuction auction(bids, {5.0, 5.0}, {1.0, 1.0});
  ClockAuctionResult forged;
  forged.prices = {4.0, 2.0};
  forged.decisions = {ProxyDecision{0, 4.0}};  // Pool 1 was cheaper.
  forged.excess = {-4.0, -5.0};
  const SystemCheckResult check = CheckSystemConstraints(auction, forged);
  ASSERT_FALSE(check.Feasible());
  EXPECT_NE(check.ToString().find("(4)"), std::string::npos);
}

TEST(SystemCheckTest, DetectsLoserWhoBidEnough) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 10.0)};
  ClockAuction auction(bids, {5.0}, {1.0});
  ClockAuctionResult forged;
  forged.prices = {2.0};
  forged.decisions = {ProxyDecision{}};  // Declared loser at price 2 < 10.
  forged.excess = {-5.0};
  const SystemCheckResult check = CheckSystemConstraints(auction, forged);
  ASSERT_FALSE(check.Feasible());
  EXPECT_NE(check.ToString().find("(5)"), std::string::npos);
}

TEST(SystemCheckTest, DetectsPriceBelowReserve) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 10.0)};
  ClockAuction auction(bids, {5.0}, {3.0});
  ClockAuctionResult forged;
  forged.prices = {1.0};  // Below reserve 3.
  forged.decisions = {ProxyDecision{0, 1.0}};
  forged.excess = {-4.0};
  const SystemCheckResult check = CheckSystemConstraints(auction, forged);
  ASSERT_FALSE(check.Feasible());
  EXPECT_NE(check.ToString().find("(6)"), std::string::npos);
}

}  // namespace
}  // namespace pm::auction
