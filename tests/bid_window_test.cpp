// Tests for the §V.A bid-collection window: submission/amendment/
// withdrawal, periodic preliminary price ticks, automatic close, and the
// end-to-end handoff to a binding auction.
#include <gtest/gtest.h>

#include <cmath>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "common/check.h"
#include "exchange/bid_window.h"
#include "exchange/market.h"

namespace pm::exchange {
namespace {

bid::Bid SimpleBid(const std::string& name, PoolId pool, double qty,
                   double limit) {
  bid::Bid b;
  b.name = name;
  b.bundles = {bid::Bundle({bid::BundleItem{pool, qty}})};
  b.limit = limit;
  return b;
}

/// Pool count of the stub book.
constexpr std::size_t kPools = 3;

/// A stub preliminary computation that records call counts and returns
/// a constant price per bid in the book.
struct StubPricer {
  int calls = 0;
  std::vector<double> operator()(std::vector<bid::Bid> bids) {
    ++calls;
    return std::vector<double>(kPools, static_cast<double>(bids.size()));
  }
};

TEST(BidWindowTest, CollectsAndClosesAutomatically) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, /*close_at=*/100.0, /*tick_period=*/10.0,
                   std::ref(pricer));
  EXPECT_TRUE(window.Submit(SimpleBid("a", 0, 1.0, 5.0)));
  queue.RunUntil(50.0);
  EXPECT_TRUE(window.IsOpen());
  EXPECT_TRUE(window.Submit(SimpleBid("b", 1, 2.0, 9.0)));
  queue.RunUntil(100.0);
  EXPECT_FALSE(window.IsOpen());
  EXPECT_FALSE(window.Submit(SimpleBid("late", 0, 1.0, 5.0)));
  // The deadline sealed the book without dropping it: the binding close
  // still gets every bid submitted in time.
  const std::vector<bid::Bid> final_bids = window.Close();
  ASSERT_EQ(final_bids.size(), 2u);
  EXPECT_EQ(final_bids[0].name, "a");
  EXPECT_EQ(final_bids[0].user, 0u);
  EXPECT_EQ(final_bids[1].name, "b");
  EXPECT_EQ(final_bids[1].user, 1u);
  EXPECT_TRUE(window.Close().empty());  // Idempotent.
}

TEST(BidWindowTest, TicksComputePreliminaryPrices) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, 100.0, 10.0, std::ref(pricer));
  window.Submit(SimpleBid("a", 0, 1.0, 5.0));
  queue.RunUntil(35.0);
  // Ticks at 10, 20, 30.
  EXPECT_EQ(window.Ticks().size(), 3u);
  EXPECT_EQ(pricer.calls, 3);
  EXPECT_EQ(window.Ticks()[0].bids_in_book, 1u);
  EXPECT_EQ(window.LatestPreliminaryPrices(),
            std::vector<double>(3, 1.0));
  window.Submit(SimpleBid("b", 0, 1.0, 5.0));
  queue.RunUntil(45.0);
  EXPECT_EQ(window.LatestPreliminaryPrices(),
            std::vector<double>(3, 2.0));
}

TEST(BidWindowTest, NoTicksAfterClose) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, 25.0, 10.0, std::ref(pricer));
  queue.RunAll();
  EXPECT_FALSE(window.IsOpen());
  EXPECT_EQ(pricer.calls, 2);  // Ticks at 10 and 20 only.
}

TEST(BidWindowTest, AmendReplacesByName) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, 100.0, 10.0, std::ref(pricer));
  window.Submit(SimpleBid("team-a/grow", 0, 1.0, 5.0));
  window.Submit(SimpleBid("team-b/grow", 0, 1.0, 6.0));
  EXPECT_EQ(window.Amend("team-a/grow",
                         SimpleBid("team-a/grow", 0, 2.0, 11.0)),
            1u);
  EXPECT_EQ(window.BookSize(), 2u);
  // Amending an unknown name does nothing.
  EXPECT_EQ(window.Amend("ghost", SimpleBid("ghost", 0, 1.0, 1.0)), 0u);
  EXPECT_EQ(window.BookSize(), 2u);
}

TEST(BidWindowTest, WithdrawRemovesAllWithName) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, 100.0, 10.0, std::ref(pricer));
  window.Submit(SimpleBid("dup", 0, 1.0, 5.0));
  window.Submit(SimpleBid("dup", 1, 1.0, 5.0));
  window.Submit(SimpleBid("other", 0, 1.0, 5.0));
  EXPECT_EQ(window.Withdraw("dup"), 2u);
  EXPECT_EQ(window.BookSize(), 1u);
}

TEST(BidWindowTest, CloseAssignsUserIdsAndEmptiesBook) {
  sim::EventQueue queue;
  StubPricer pricer;
  BidWindow window(queue, kPools, 100.0, 10.0, std::ref(pricer));
  window.Submit(SimpleBid("a", 0, 1.0, 5.0));
  window.Submit(SimpleBid("b", 1, 2.0, 9.0));
  const std::vector<bid::Bid> final_bids = window.Close();
  ASSERT_EQ(final_bids.size(), 2u);
  EXPECT_EQ(final_bids[0].user, 0u);
  EXPECT_EQ(final_bids[1].user, 1u);
  EXPECT_EQ(window.BookSize(), 0u);
  EXPECT_TRUE(window.Close().empty());  // Idempotent.
}

TEST(BidWindowTest, ValidatesConstruction) {
  sim::EventQueue queue;
  StubPricer pricer;
  EXPECT_THROW(BidWindow(queue, kPools, 0.0, 10.0, std::ref(pricer)),
               CheckFailure);
  EXPECT_THROW(BidWindow(queue, kPools, 10.0, 0.0, std::ref(pricer)),
               CheckFailure);
}

TEST(BidWindowTest, EndToEndWithMarketPreliminaryPrices) {
  // The full Figure 5 loop: bids accumulate, the market simulator prices
  // the book at intervals, the close hands the final set to a binding
  // clock auction.
  agents::WorkloadConfig workload;
  workload.num_clusters = 4;
  workload.num_teams = 8;
  workload.min_machines_per_cluster = 10;
  workload.max_machines_per_cluster = 15;
  workload.seed = 77;
  agents::World world = GenerateWorld(workload);
  MarketConfig config;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  sim::EventQueue queue;
  BidWindow window(queue, world.fleet.NumPools(), /*close_at=*/72.0,
                   /*tick_period=*/24.0,
                   [&market](std::vector<bid::Bid> bids) {
                     return market.ComputePreliminaryPrices(
                         std::move(bids));
                   });
  // Two teams enter bids at different times during the window.
  window.Submit(SimpleBid("early/buy", 0, 5.0, 1e5));
  queue.RunUntil(30.0);
  ASSERT_FALSE(window.Ticks().empty());
  const std::vector<double> prelim = window.LatestPreliminaryPrices();
  EXPECT_EQ(prelim.size(), world.fleet.NumPools());
  window.Submit(SimpleBid("late/buy", 0, 5.0, 1e5));
  queue.RunUntil(80.0);
  EXPECT_FALSE(window.IsOpen());

  // Preliminary pricing bound nothing.
  EXPECT_EQ(market.AuctionCount(), 0);
  EXPECT_TRUE(market.ledger().Journal().empty());
}

TEST(BidWindowTest, RejectsMalformedBidAndKeepsTicking) {
  // A malformed bid must never reach the preliminary auction: it would
  // throw out of the tick and stop the tick process for the rest of the
  // window.
  agents::WorkloadConfig workload;
  workload.num_clusters = 3;
  workload.num_teams = 4;
  workload.min_machines_per_cluster = 5;
  workload.max_machines_per_cluster = 8;
  workload.seed = 5;
  agents::World world = GenerateWorld(workload);
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                MarketConfig{});
  const std::size_t pools = world.fleet.NumPools();

  sim::EventQueue queue;
  BidWindow window(queue, pools, /*close_at=*/100.0, /*tick_period=*/10.0,
                   [&market](std::vector<bid::Bid> bids) {
                     return market.ComputePreliminaryPrices(
                         std::move(bids));
                   });
  EXPECT_FALSE(window.Submit(SimpleBid("bad", 0, 1.0, std::nan(""))));
  EXPECT_FALSE(window.Submit(
      SimpleBid("far", static_cast<PoolId>(pools), 1.0, 5.0)));
  ASSERT_TRUE(window.Submit(SimpleBid("good", 0, 1.0, 1e5)));
  EXPECT_EQ(window.Amend("good", SimpleBid("good", 0, 1.0, std::nan(""))),
            0u);
  EXPECT_EQ(window.BookSize(), 1u);

  queue.RunUntil(15.0);
  ASSERT_EQ(window.Ticks().size(), 1u);
  EXPECT_EQ(window.Ticks()[0].bids_in_book, 1u);
  EXPECT_EQ(window.LatestPreliminaryPrices().size(), pools);
  const std::vector<bid::Bid> final_bids = window.Close();
  ASSERT_EQ(final_bids.size(), 1u);
  EXPECT_EQ(final_bids[0].name, "good");
}

}  // namespace
}  // namespace pm::exchange
