// Tests for the baseline mechanisms: exact WDP branch & bound, greedy
// pay-as-bid, and the traditional priority-order allocator.
#include <gtest/gtest.h>

#include <numeric>

#include "auction/clock_auction.h"
#include "auction/fixed_price.h"
#include "auction/greedy.h"
#include "auction/wdp_exact.h"
#include "common/rng.h"

namespace pm::auction {
namespace {

using bid::Bid;
using bid::Bundle;
using bid::BundleItem;

Bid MakeBid(UserId user, std::vector<Bundle> bundles, double limit) {
  Bid b;
  b.user = user;
  b.name = "u" + std::to_string(user);
  b.bundles = std::move(bundles);
  b.limit = limit;
  return b;
}

// -------------------------------------------------------------------- WDP --

TEST(WdpExactTest, PicksHigherValueWhenConflicting) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 10.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 7.0),
  };
  const WdpResult r = SolveWdpExact(bids, {1.0});
  EXPECT_DOUBLE_EQ(r.total_surplus, 10.0);
  EXPECT_EQ(r.chosen[0], 0);
  EXPECT_EQ(r.chosen[1], -1);
}

TEST(WdpExactTest, PacksCompatibleWinners) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 5.0),
      MakeBid(1, {Bundle({{1, 1.0}})}, 6.0),
      MakeBid(2, {Bundle({{0, 1.0}, {1, 1.0}})}, 8.0),
  };
  // Supply 1+1: either u2 alone (8) or u0+u1 (11).
  const WdpResult r = SolveWdpExact(bids, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(r.total_surplus, 11.0);
  EXPECT_EQ(r.chosen[2], -1);
}

TEST(WdpExactTest, ChoosesBestBundlePerUser) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 2.0}}), Bundle({{1, 1.0}})}, 9.0),
      MakeBid(1, {Bundle({{0, 2.0}})}, 8.0),
  };
  // Supply allows only one big pool-0 bundle; u0 should flex to pool 1.
  const WdpResult r = SolveWdpExact(bids, {2.0, 1.0});
  EXPECT_DOUBLE_EQ(r.total_surplus, 17.0);
  EXPECT_EQ(r.chosen[0], 1);
  EXPECT_EQ(r.chosen[1], 0);
}

TEST(WdpExactTest, SellersEnableBuyers) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 10.0),
      MakeBid(1, {Bundle({{0, -1.0}})}, -2.0),
  };
  // No operator supply: buyer wins only alongside the seller.
  const WdpResult r = SolveWdpExact(bids, {0.0});
  EXPECT_DOUBLE_EQ(r.total_surplus, 8.0);
  EXPECT_EQ(r.chosen[0], 0);
  EXPECT_EQ(r.chosen[1], 0);
}

TEST(WdpExactTest, EmptyMarketHasZeroSurplus) {
  const WdpResult r = SolveWdpExact({}, {1.0});
  EXPECT_DOUBLE_EQ(r.total_surplus, 0.0);
}

TEST(WdpExactTest, NodeBudgetCapsSearch) {
  RandomStream rng(5);
  std::vector<Bid> bids;
  for (UserId u = 0; u < 18; ++u) {
    bids.push_back(MakeBid(
        u, {Bundle({{static_cast<PoolId>(u % 3), rng.Uniform(1.0, 3.0)}})},
        rng.Uniform(1.0, 20.0)));
  }
  const WdpResult r = SolveWdpExact(bids, {10.0, 10.0, 10.0}, 100);
  EXPECT_EQ(r.nodes_expanded, 100);
}

TEST(WdpExactTest, ClockAuctionNeverBeatsExactSurplus) {
  // §III.C.4: the clock finds a feasible, not necessarily optimal point.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RandomStream rng(seed);
    std::vector<Bid> bids;
    std::vector<double> supply = {rng.Uniform(2, 6), rng.Uniform(2, 6)};
    std::vector<double> reserve = {1.0, 1.0};
    for (UserId u = 0; u < 10; ++u) {
      const auto pool = static_cast<PoolId>(rng.UniformInt(0, 1));
      const double qty = rng.Uniform(1.0, 3.0);
      bids.push_back(MakeBid(u, {Bundle({{pool, qty}})},
                             qty * rng.Uniform(1.0, 5.0)));
    }
    const WdpResult exact = SolveWdpExact(bids, supply);
    ClockAuction auction(bids, supply, reserve);
    ClockAuctionConfig config;
    config.alpha = 0.4;
    config.delta = 0.05;
    const ClockAuctionResult r = auction.Run(config);
    ASSERT_TRUE(r.converged);
    std::vector<int> chosen(bids.size(), -1);
    for (std::size_t u = 0; u < bids.size(); ++u) {
      chosen[u] = r.decisions[u].bundle_index;
    }
    const double clock_surplus = DeclaredSurplus(bids, chosen);
    EXPECT_LE(clock_surplus, exact.total_surplus + 1e-9)
        << "seed " << seed;
  }
}

// ------------------------------------------------------------------ greedy --

TEST(GreedyTest, AwardsByDescendingLimit) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 1.0}})}, 3.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 9.0),
  };
  const GreedyResult r = SolveGreedy(bids, {1.0});
  EXPECT_EQ(r.chosen[0], -1);
  EXPECT_EQ(r.chosen[1], 0);
  EXPECT_DOUBLE_EQ(r.total_surplus, 9.0);
  EXPECT_DOUBLE_EQ(r.operator_revenue, 9.0);  // Pay-as-bid.
}

TEST(GreedyTest, SkipsToFittingBundle) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 5.0}}), Bundle({{1, 1.0}})}, 10.0),
  };
  const GreedyResult r = SolveGreedy(bids, {1.0, 1.0});
  EXPECT_EQ(r.chosen[0], 1);  // First bundle does not fit.
}

TEST(GreedyTest, CanBeSuboptimal) {
  // Greedy grabs the 10-value hog; optimal is the two 6-value bids.
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 2.0}})}, 10.0),
      MakeBid(1, {Bundle({{0, 1.0}})}, 6.0),
      MakeBid(2, {Bundle({{0, 1.0}})}, 6.0),
  };
  const GreedyResult greedy = SolveGreedy(bids, {2.0});
  const WdpResult exact = SolveWdpExact(bids, {2.0});
  EXPECT_DOUBLE_EQ(greedy.total_surplus, 10.0);
  EXPECT_DOUBLE_EQ(exact.total_surplus, 12.0);
}

TEST(GreedyTest, SellersReplenishSupply) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, -2.0}})}, -1.0),
      MakeBid(1, {Bundle({{0, 2.0}})}, 8.0),
  };
  const GreedyResult r = SolveGreedy(bids, {0.0});
  // Buyer (limit 8) is processed first but cannot fit; seller posts
  // capacity; order is by limit so seller (-1) comes after buyer (8).
  // Greedy is one-pass: buyer misses, seller then sells to no one.
  EXPECT_EQ(r.chosen[1], -1);
  EXPECT_EQ(r.chosen[0], 0);
}

// ------------------------------------------------------------- fixed price --

TEST(FixedPriceTest, PriorityOrderServesFirstComeFirstServed) {
  std::vector<Bid> bids = {
      MakeBid(0, {Bundle({{0, 2.0}})}, 50.0),
      MakeBid(1, {Bundle({{0, 2.0}})}, 50.0),
  };
  std::vector<std::size_t> priority = {1, 0};  // User 1 outranks 0.
  const FixedPriceResult r =
      AllocatePriorityOrder(bids, {3.0}, {1.0}, priority);
  EXPECT_EQ(r.chosen[1], 0);
  EXPECT_EQ(r.chosen[0], -1);  // Only 1 unit left; shortage.
  EXPECT_DOUBLE_EQ(r.shortage[0], 2.0);
  EXPECT_DOUBLE_EQ(r.surplus[0], 1.0);
  EXPECT_DOUBLE_EQ(r.operator_revenue, 2.0);
}

TEST(FixedPriceTest, PriceOutIsNotShortage) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 2.0}})}, 1.0)};
  std::vector<std::size_t> priority = {0};
  // Fixed price 10: user cannot afford 20, so no request, no shortage.
  const FixedPriceResult r =
      AllocatePriorityOrder(bids, {5.0}, {10.0}, priority);
  EXPECT_EQ(r.chosen[0], -1);
  EXPECT_DOUBLE_EQ(r.shortage[0], 0.0);
  EXPECT_DOUBLE_EQ(r.surplus[0], 5.0);
}

TEST(FixedPriceTest, PriorityRequiresFullRanking) {
  std::vector<Bid> bids = {MakeBid(0, {Bundle({{0, 1.0}})}, 5.0)};
  EXPECT_THROW(AllocatePriorityOrder(bids, {1.0}, {1.0}, {}),
               pm::CheckFailure);
}

}  // namespace
}  // namespace pm::auction
