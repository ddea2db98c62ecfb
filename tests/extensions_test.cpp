// Tests for the paper's stated extensions, implemented in this repo:
//  * vector π — per-bundle limits (§II: "Extending the model to allow
//    for vector π's ... does not significantly change our results")
//  * price ceilings p ≤ pmax (§III.B's bounded-price modification)
//  * operator decision support — capacity advice from price signals
//    (§III.A / §IV)
#include <gtest/gtest.h>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "auction/greedy.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "auction/wdp_exact.h"
#include "common/check.h"
#include "exchange/capacity_advice.h"
#include "exchange/market.h"

namespace pm {
namespace {

using auction::ClockAuction;
using auction::ClockAuctionConfig;
using auction::ClockAuctionResult;
using bid::Bid;
using bid::Bundle;
using bid::BundleItem;

Bid VectorBid(UserId user, std::vector<Bundle> bundles,
              std::vector<double> limits) {
  Bid b;
  b.user = user;
  b.name = "v" + std::to_string(user);
  b.bundles = std::move(bundles);
  b.bundle_limits = std::move(limits);
  return b;
}

ClockAuctionConfig FastConfig() {
  ClockAuctionConfig config;
  config.alpha = 0.5;
  config.delta = 0.10;
  config.step_floor = 0.01;
  return config;
}

// ---------------------------------------------------------- vector limits --

TEST(VectorLimitsTest, LimitForSelectsPerBundle) {
  const Bid b = VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                          {10.0, 20.0});
  EXPECT_TRUE(b.HasVectorLimits());
  EXPECT_DOUBLE_EQ(b.LimitFor(0), 10.0);
  EXPECT_DOUBLE_EQ(b.LimitFor(1), 20.0);
  EXPECT_THROW(b.LimitFor(2), CheckFailure);
}

TEST(VectorLimitsTest, ScalarBidFallsBackToLimit) {
  Bid b;
  b.bundles = {Bundle({{0, 1.0}})};
  b.limit = 7.0;
  EXPECT_FALSE(b.HasVectorLimits());
  EXPECT_DOUBLE_EQ(b.LimitFor(0), 7.0);
}

TEST(VectorLimitsTest, ValidationChecksArity) {
  Bid b = VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})}, {5.0});
  EXPECT_NE(ValidateBid(b, 2), "");
  b.bundle_limits = {5.0, 6.0};
  EXPECT_EQ(ValidateBid(b, 2), "");
}

TEST(VectorLimitsTest, ValidationRejectsNonFiniteEntries) {
  Bid b = VectorBid(
      0, {Bundle({{0, 1.0}})},
      {std::numeric_limits<double>::infinity()});
  EXPECT_NE(ValidateBid(b, 1), "");
}

TEST(VectorLimitsTest, BuyerNeedsOnePositiveLimit) {
  Bid b = VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                    {-1.0, 0.0});
  EXPECT_NE(ValidateBid(b, 2), "");
  b.bundle_limits = {-1.0, 3.0};  // One attainable alternative suffices.
  EXPECT_EQ(ValidateBid(b, 2), "");
}

TEST(VectorLimitsTest, ProxyPrefersCheapestAffordable) {
  // Bundle 0 is cheaper but its limit is tight; bundle 1 affordable.
  const Bid b = VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                          {2.0, 50.0});
  auction::BidderProxy proxy(&b);
  const std::vector<double> prices = {3.0, 10.0};
  const auction::ProxyDecision d = proxy.Evaluate(prices);
  ASSERT_TRUE(d.Active());
  EXPECT_EQ(d.bundle_index, 1);  // Pool 0 costs 3 > limit 2.
  EXPECT_DOUBLE_EQ(d.cost, 10.0);
}

TEST(VectorLimitsTest, ProxyDropsOutWhenNothingAffordable) {
  const Bid b = VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                          {2.0, 4.0});
  auction::BidderProxy proxy(&b);
  const std::vector<double> prices = {5.0, 6.0};
  EXPECT_FALSE(proxy.Evaluate(prices).Active());
}

TEST(VectorLimitsTest, ProxyMatchesScalarWhenLimitsUniform) {
  const std::vector<Bundle> bundles = {Bundle({{0, 2.0}}),
                                       Bundle({{1, 2.0}})};
  const Bid vector_bid = VectorBid(0, bundles, {12.0, 12.0});
  Bid scalar_bid;
  scalar_bid.user = 1;
  scalar_bid.bundles = bundles;
  scalar_bid.limit = 12.0;
  auction::BidderProxy vp(&vector_bid);
  auction::BidderProxy sp(&scalar_bid);
  for (const std::vector<double> prices :
       {std::vector<double>{1.0, 2.0}, std::vector<double>{9.0, 5.0},
        std::vector<double>{7.0, 7.0}}) {
    const auto vd = vp.Evaluate(prices);
    const auto sd = sp.Evaluate(prices);
    EXPECT_EQ(vd.bundle_index, sd.bundle_index);
    EXPECT_EQ(vd.Active(), sd.Active());
  }
}

TEST(VectorLimitsTest, ClockAuctionOutcomeIsSystemFeasible) {
  // A flexible bidder with per-bundle limits next to a pool-0-only
  // rival. The proxy always takes the cheapest *affordable* alternative,
  // so as pool 0 heats up the vector bidder flexes to pool 1 and both
  // win — a SYSTEM-feasible outcome under the vector-π reading of
  // constraints (4)/(5).
  std::vector<Bid> bids;
  bids.push_back(VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                           {50.0, 5.0}));
  Bid rival;
  rival.user = 1;
  rival.name = "rival";
  rival.bundles = {Bundle({{0, 1.0}})};
  rival.limit = 20.0;
  bids.push_back(std::move(rival));

  ClockAuction auction(bids, {1.0, 1.0}, {1.0, 1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  ASSERT_TRUE(r.converged);
  const auction::SystemCheckResult check =
      CheckSystemConstraints(auction, r);
  EXPECT_TRUE(check.Feasible()) << check.ToString();
  ASSERT_TRUE(r.decisions[0].Active());
  ASSERT_TRUE(r.decisions[1].Active());
  EXPECT_EQ(r.decisions[0].bundle_index, 1);  // Flexed to pool 1.
  EXPECT_EQ(r.decisions[1].bundle_index, 0);
}

TEST(VectorLimitsTest, SettlementPremiumUsesAwardedBundleLimit) {
  std::vector<Bid> bids = {
      VectorBid(0, {Bundle({{0, 4.0}}), Bundle({{1, 4.0}})},
                {50.0, 30.0})};
  ClockAuction auction(bids, {10.0, 10.0}, {2.5, 1.0});
  const ClockAuctionResult r = auction.Run(FastConfig());
  const auction::Settlement s = Settle(auction, r);
  ASSERT_EQ(s.awards.size(), 1u);
  EXPECT_EQ(s.awards[0].bundle_index, 1);  // Pool 1 cheaper (4·1 = 4).
  // Premium against the *awarded* bundle's limit 30: |30−4|/4 = 6.5.
  EXPECT_NEAR(s.awards[0].premium, 6.5, 1e-9);
}

TEST(VectorLimitsTest, WdpUsesPerBundleValues) {
  std::vector<Bid> bids = {
      VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                {3.0, 9.0})};
  const auction::WdpResult r =
      auction::SolveWdpExact(bids, {1.0, 1.0});
  EXPECT_EQ(r.chosen[0], 1);  // The 9-valued bundle wins the objective.
  EXPECT_DOUBLE_EQ(r.total_surplus, 9.0);
}

TEST(VectorLimitsTest, GreedyChargesAwardedBundleLimit) {
  std::vector<Bid> bids = {
      VectorBid(0, {Bundle({{0, 5.0}}), Bundle({{1, 1.0}})},
                {100.0, 8.0})};
  // Pool 0 lacks supply: greedy falls through to bundle 1 and charges
  // its limit.
  const auction::GreedyResult r =
      auction::SolveGreedy(bids, {1.0, 1.0});
  EXPECT_EQ(r.chosen[0], 1);
  EXPECT_DOUBLE_EQ(r.operator_revenue, 8.0);
}

// -------------------------------------------------------------- price caps --

TEST(PriceCapsTest, NonBindingCapChangesNothing) {
  std::vector<Bid> bids;
  Bid a;
  a.user = 0;
  a.bundles = {Bundle({{0, 1.0}})};
  a.limit = 9.0;
  Bid b = a;
  b.user = 1;
  b.limit = 7.0;
  bids = {a, b};
  ClockAuction auction(bids, {1.0}, {1.0});
  const ClockAuctionResult plain = auction.Run(FastConfig());
  ClockAuctionConfig capped = FastConfig();
  capped.price_caps = {1000.0};
  const ClockAuctionResult with_cap = auction.Run(capped);
  ASSERT_TRUE(plain.converged && with_cap.converged);
  EXPECT_EQ(plain.prices, with_cap.prices);
  EXPECT_TRUE(with_cap.capped_pools.empty());
}

TEST(PriceCapsTest, BindingCapStopsBelowClearing) {
  std::vector<Bid> bids;
  for (UserId u = 0; u < 2; ++u) {
    Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    b.bundles = {Bundle({{0, 1.0}})};
    b.limit = 100.0;  // Both would pay up to 100 for the single unit.
    bids.push_back(std::move(b));
  }
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {5.0};
  const ClockAuctionResult r = auction.Run(config);
  EXPECT_FALSE(r.converged);
  ASSERT_EQ(r.capped_pools.size(), 1u);
  EXPECT_EQ(r.capped_pools[0], 0u);
  EXPECT_LE(r.prices[0], 5.0 + 1e-9);
  // Both proxies still demand at the cap: rationing is left to the
  // caller, as §III.B warns ("reduce the size of the feasible region").
  EXPECT_TRUE(r.decisions[0].Active());
  EXPECT_TRUE(r.decisions[1].Active());
}

TEST(PriceCapsTest, OtherPoolsStillClearAroundCappedOne) {
  std::vector<Bid> bids;
  for (UserId u = 0; u < 2; ++u) {
    Bid hot;
    hot.user = u;
    hot.bundles = {Bundle({{0, 1.0}})};
    hot.limit = 100.0;
    bids.push_back(std::move(hot));
  }
  Bid cold;
  cold.user = 2;
  cold.bundles = {Bundle({{1, 1.0}})};
  cold.limit = 3.0;
  bids.push_back(std::move(cold));
  Bid rival;
  rival.user = 3;
  rival.bundles = {Bundle({{1, 1.0}})};
  rival.limit = 6.0;
  bids.push_back(std::move(rival));

  ClockAuction auction(bids, {1.0, 1.0}, {1.0, 1.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {4.0, 1000.0};
  const ClockAuctionResult r = auction.Run(config);
  EXPECT_FALSE(r.converged);  // Pool 0 pinned.
  ASSERT_EQ(r.capped_pools.size(), 1u);
  EXPECT_EQ(r.capped_pools[0], 0u);
  // Pool 1 cleared normally: the 3-limit bidder must be out.
  EXPECT_GT(r.prices[1], 3.0);
  EXPECT_FALSE(r.decisions[2].Active());
  EXPECT_TRUE(r.decisions[3].Active());
}

TEST(PriceCapsTest, CapBelowReserveThrows) {
  std::vector<Bid> bids;
  Bid b;
  b.user = 0;
  b.bundles = {Bundle({{0, 1.0}})};
  b.limit = 5.0;
  bids.push_back(std::move(b));
  ClockAuction auction(bids, {1.0}, {2.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {1.0};  // Below the reserve of 2.
  EXPECT_THROW(auction.Run(config), CheckFailure);
}

TEST(PriceCapsTest, WrongCapAritiesThrow) {
  std::vector<Bid> bids;
  Bid b;
  b.user = 0;
  b.bundles = {Bundle({{0, 1.0}})};
  b.limit = 5.0;
  bids.push_back(std::move(b));
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {10.0, 10.0};
  EXPECT_THROW(auction.Run(config), CheckFailure);
}

// ---------------------------------------------- extension interactions --

TEST(ExtensionInteractionTest, VectorLimitsUnderPriceCaps) {
  // A vector bidder whose preferred pool pins at its cap while the
  // alternative stays open: the proxy flexes, the auction clears.
  std::vector<Bid> bids;
  bids.push_back(VectorBid(0, {Bundle({{0, 1.0}}), Bundle({{1, 1.0}})},
                           {100.0, 100.0}));
  for (UserId u = 1; u <= 2; ++u) {
    Bid hog;
    hog.user = u;
    hog.name = "hog" + std::to_string(u);
    hog.bundles = {Bundle({{0, 1.5}})};  // Hogs alone exceed supply.
    hog.limit = 500.0;
    bids.push_back(std::move(hog));
  }
  // Pool 0: 2 units vs 3 demanded by the hogs, capped at 3.0 → pinned.
  // Pool 1: ample.
  ClockAuction auction(bids, {2.0, 5.0}, {1.0, 1.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {3.0, 1000.0};
  const ClockAuctionResult r = auction.Run(config);
  EXPECT_FALSE(r.converged);
  ASSERT_EQ(r.capped_pools.size(), 1u);
  EXPECT_EQ(r.capped_pools[0], 0u);
  // The flexible bidder escaped to pool 1 once pool 0 got pricier.
  ASSERT_TRUE(r.decisions[0].Active());
  EXPECT_EQ(r.decisions[0].bundle_index, 1);
}

TEST(ExtensionInteractionTest, BisectionWithVectorLimits) {
  std::vector<Bid> bids;
  bids.push_back(VectorBid(0, {Bundle({{0, 1.0}})}, {50.0}));
  bids.push_back(VectorBid(1, {Bundle({{0, 1.0}})}, {30.0}));
  ClockAuction auction(bids, {1.0}, {1.0});
  ClockAuctionConfig config = FastConfig();
  config.delta = 4.0;
  config.policy_kind = ClockAuctionConfig::PolicyKind::kCapped;
  config.alpha = 2.0;
  config.intra_round_bisection = true;
  const ClockAuctionResult r = auction.Run(config);
  ASSERT_TRUE(r.converged);
  // Price lands just above the marginal vector limit of 30.
  EXPECT_GT(r.prices[0], 30.0 - 1e-6);
  EXPECT_LT(r.prices[0], 34.5);
  // Bisection converges onto the marginal bidder's limit, so audit with
  // a tolerance matching the proxy epsilon — at the coarser default the
  // knife-edge loser "could still afford" within tolerance (the §III.B
  // tie discussion, materialized).
  const auction::SystemCheckResult check =
      CheckSystemConstraints(auction, r, /*tolerance=*/1e-9);
  EXPECT_TRUE(check.Feasible()) << check.ToString();
}

TEST(ExtensionInteractionTest, CapsComposeWithSellers) {
  // A seller keeps the capped pool partially served: the cap binds on
  // the *residual* demand only.
  std::vector<Bid> bids;
  Bid buyer1;
  buyer1.user = 0;
  buyer1.name = "b1";
  buyer1.bundles = {Bundle({{0, 2.0}})};
  buyer1.limit = 1000.0;
  Bid buyer2 = buyer1;
  buyer2.user = 1;
  buyer2.name = "b2";
  Bid seller;
  seller.user = 2;
  seller.name = "s";
  seller.bundles = {Bundle({{0, -2.0}})};
  seller.limit = -1.0;
  bids = {buyer1, buyer2, seller};
  // Supply 0 + seller's 2: only one buyer can be served; cap below the
  // tie-break point keeps both in → capped.
  ClockAuction auction(bids, {0.0}, {1.0});
  ClockAuctionConfig config = FastConfig();
  config.price_caps = {4.0};
  const ClockAuctionResult r = auction.Run(config);
  EXPECT_FALSE(r.converged);
  ASSERT_EQ(r.capped_pools.size(), 1u);
  // The seller is glad to sell at the cap.
  EXPECT_TRUE(r.decisions[2].Active());
}

// --------------------------------------------------------- capacity advice --

exchange::AuctionReport ReportWith(double hot_ratio, double hot_util,
                                   double cold_ratio, double cold_util) {
  exchange::AuctionReport report;
  report.fixed_prices = {10.0, 10.0};
  report.settled_prices = {10.0 * hot_ratio, 10.0 * cold_ratio};
  report.pre_utilization = {hot_util, cold_util};
  return report;
}

TEST(CapacityAdviceTest, FlagsHotAndColdPools) {
  PoolRegistry registry;
  registry.Intern("hot", ResourceKind::kCpu);
  registry.Intern("cold", ResourceKind::kCpu);
  std::vector<exchange::AuctionReport> history = {
      ReportWith(1.8, 0.9, 0.5, 0.1),
      ReportWith(1.6, 0.85, 0.6, 0.15),
      ReportWith(1.9, 0.92, 0.55, 0.12),
  };
  const auto advice = exchange::AdviseCapacity(history, registry);
  ASSERT_EQ(advice.size(), 2u);
  EXPECT_EQ(advice[0].action, exchange::CapacityAction::kExpand);
  EXPECT_EQ(advice[0].pool, 0u);
  EXPECT_NEAR(advice[0].mean_price_ratio, (1.8 + 1.6 + 1.9) / 3, 1e-9);
  EXPECT_EQ(advice[1].action, exchange::CapacityAction::kRepurpose);
  EXPECT_EQ(advice[1].pool, 1u);
}

TEST(CapacityAdviceTest, BalancedPoolsGetNoAdvice) {
  PoolRegistry registry;
  registry.Intern("a", ResourceKind::kCpu);
  registry.Intern("b", ResourceKind::kCpu);
  std::vector<exchange::AuctionReport> history = {
      ReportWith(1.05, 0.5, 0.95, 0.45)};
  EXPECT_TRUE(exchange::AdviseCapacity(history, registry).empty());
}

TEST(CapacityAdviceTest, WindowLimitsLookback) {
  PoolRegistry registry;
  registry.Intern("a", ResourceKind::kCpu);
  registry.Intern("b", ResourceKind::kCpu);
  // Old reports scream "expand"; the recent window is calm.
  std::vector<exchange::AuctionReport> history = {
      ReportWith(3.0, 0.95, 1.0, 0.5), ReportWith(3.0, 0.95, 1.0, 0.5),
      ReportWith(1.0, 0.5, 1.0, 0.5), ReportWith(1.0, 0.5, 1.0, 0.5),
      ReportWith(1.0, 0.5, 1.0, 0.5)};
  EXPECT_TRUE(exchange::AdviseCapacity(history, registry).empty());
}

TEST(CapacityAdviceTest, EmptyHistoryYieldsNothing) {
  PoolRegistry registry;
  registry.Intern("a", ResourceKind::kCpu);
  EXPECT_TRUE(exchange::AdviseCapacity({}, registry).empty());
}

TEST(CapacityAdviceTest, PoolsAdoptedInsideTheWindowAreAdvised) {
  // Adopting a cluster interns new pools, so the reports from before the
  // adoption cover only a prefix of the registry.
  agents::WorkloadConfig workload;
  workload.num_clusters = 4;
  workload.num_teams = 12;
  workload.min_machines_per_cluster = 10;
  workload.max_machines_per_cluster = 20;
  agents::World world = agents::GenerateWorld(workload);
  workload.seed = 7;
  agents::World donor = agents::GenerateWorld(workload);
  exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          config);
  exchange::Market donor_market(&donor.fleet, &donor.agents,
                                donor.fixed_prices, config);

  market.RunAuction();
  cluster::Cluster adopted =
      donor_market.ExtractCluster(donor.fleet.ClusterNames().front());
  adopted.SetName("adopted");
  market.AdoptCluster(std::move(adopted));
  market.RunAuction();

  const std::vector<exchange::AuctionReport>& history = market.History();
  const PoolRegistry& registry = world.fleet.registry();
  ASSERT_EQ(history.size(), 2u);
  ASSERT_LT(history[0].settled_prices.size(), registry.size());
  ASSERT_EQ(history[1].settled_prices.size(), registry.size());

  // Adopted pools are judged on the one report that prices them; the
  // rest on both.
  exchange::AuctionReport hot = history[1];
  for (PoolId r = history[0].settled_prices.size(); r < registry.size();
       ++r) {
    hot.settled_prices[r] = 2.0 * hot.fixed_prices[r];
    hot.pre_utilization[r] = 0.9;
  }
  const auto advice =
      exchange::AdviseCapacity({history[0], hot}, registry);
  std::size_t adopted_advised = 0;
  for (const exchange::CapacityAdvice& a : advice) {
    if (a.pool < history[0].settled_prices.size()) continue;
    ++adopted_advised;
    EXPECT_EQ(a.action, exchange::CapacityAction::kExpand);
    EXPECT_DOUBLE_EQ(a.mean_price_ratio, 2.0);
  }
  EXPECT_EQ(adopted_advised, registry.size() -
                                 history[0].settled_prices.size());
  EXPECT_NO_THROW(exchange::AdviseCapacity(history, registry));

  // A report wider than the registry still belongs to another market.
  PoolRegistry narrower;
  narrower.Intern("only", ResourceKind::kCpu);
  EXPECT_THROW(exchange::AdviseCapacity(history, narrower), CheckFailure);
}

TEST(CapacityAdviceTest, ExpansionSortedBySeverity) {
  PoolRegistry registry;
  registry.Intern("warm", ResourceKind::kCpu);
  registry.Intern("hotter", ResourceKind::kCpu);
  exchange::AuctionReport report;
  report.fixed_prices = {10.0, 10.0};
  report.settled_prices = {14.0, 19.0};
  report.pre_utilization = {0.8, 0.9};
  const auto advice = exchange::AdviseCapacity({report}, registry);
  ASSERT_EQ(advice.size(), 2u);
  EXPECT_EQ(advice[0].pool, 1u);  // 1.9x before 1.4x.
  EXPECT_EQ(advice[1].pool, 0u);
}

TEST(CapacityAdviceTest, RenderListsPoolsAndActions) {
  PoolRegistry registry;
  registry.Intern("hot", ResourceKind::kRam);
  exchange::AuctionReport report;
  report.fixed_prices = {1.0};
  report.settled_prices = {2.0};
  report.pre_utilization = {0.9};
  const auto advice = exchange::AdviseCapacity({report}, registry);
  const std::string out =
      exchange::RenderCapacityAdvice(advice, registry);
  EXPECT_NE(out.find("ram@hot"), std::string::npos);
  EXPECT_NE(out.find("expand"), std::string::npos);
  EXPECT_NE(exchange::RenderCapacityAdvice({}, registry).find("no action"),
            std::string::npos);
}

}  // namespace
}  // namespace pm
