// Cross-module integration tests: the full §V pipeline — TBBL source →
// bids → clock auction → settlement, and multi-auction market dynamics
// (migration away from congestion, premium decline, spread reduction).
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "agents/workload_gen.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "bid/tbbl_flatten.h"
#include "exchange/market.h"
#include "exchange/summary.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "stats/descriptive.h"

namespace pm {
namespace {

// --------------------------------------------- TBBL → auction end-to-end --

TEST(PipelineTest, BidLanguageDrivesAuction) {
  // Two teams compete for cluster "hot"; one is flexible and should be
  // priced over to "cold".
  const char* source = R"(
    # Team alpha is locked to the hot cluster.
    bid "alpha" limit 5000 {
      and { cpu@hot: 100 ram@hot: 200 }
    }
    # Team beta takes hot or cold, whichever clears cheaper.
    bid "beta" limit 5000 {
      xor {
        and { cpu@hot: 100 ram@hot: 200 }
        and { cpu@cold: 100 ram@cold: 200 }
      }
    }
    # Team gamma vacates hot RAM.
    offer "gamma" min 10 {
      ram@hot: 50
    }
  )";
  PoolRegistry registry;
  const bid::FlattenOutcome compiled =
      bid::CompileBids(source, registry);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_EQ(compiled.bids.size(), 3u);
  ASSERT_EQ(registry.size(), 4u);  // cpu@hot ram@hot cpu@cold ram@cold.

  // Supply: hot can host only one of the two big bundles (with gamma's
  // 50 RAM back in the pool); cold has plenty.
  std::vector<double> supply(registry.size(), 0.0);
  std::vector<double> reserve(registry.size(), 1.0);
  const PoolId cpu_hot = *registry.Find(PoolKey{"hot", ResourceKind::kCpu});
  const PoolId ram_hot = *registry.Find(PoolKey{"hot", ResourceKind::kRam});
  const PoolId cpu_cold =
      *registry.Find(PoolKey{"cold", ResourceKind::kCpu});
  const PoolId ram_cold =
      *registry.Find(PoolKey{"cold", ResourceKind::kRam});
  supply[cpu_hot] = 120.0;
  supply[ram_hot] = 180.0;  // 180 + 50 sold by gamma < 400 needed by both.
  supply[cpu_cold] = 500.0;
  supply[ram_cold] = 1000.0;
  reserve[cpu_hot] = 2.0;  // Congested cluster starts pricier.
  reserve[ram_hot] = 0.5;
  reserve[cpu_cold] = 0.8;
  reserve[ram_cold] = 0.2;

  auction::ClockAuction auction(compiled.bids, supply, reserve);
  auction::ClockAuctionConfig config;
  config.alpha = 0.4;
  config.delta = 0.05;
  const auction::ClockAuctionResult result = auction.Run(config);
  ASSERT_TRUE(result.converged);
  const auction::SystemCheckResult check =
      auction::CheckSystemConstraints(auction, result);
  ASSERT_TRUE(check.Feasible()) << check.ToString();

  // alpha wins hot (its only option), beta must flex to cold.
  ASSERT_TRUE(result.decisions[0].Active());
  ASSERT_TRUE(result.decisions[1].Active());
  EXPECT_EQ(result.decisions[0].bundle_index, 0);
  const bid::Bundle& beta_bundle =
      compiled.bids[1].bundles[static_cast<std::size_t>(
          result.decisions[1].bundle_index)];
  EXPECT_GT(beta_bundle.QuantityOf(cpu_cold), 0.0);
  EXPECT_EQ(beta_bundle.QuantityOf(cpu_hot), 0.0);

  const auction::Settlement settlement =
      auction::Settle(auction, result);
  EXPECT_EQ(settlement.awards.size() + settlement.losers.size(), 3u);
}

// -------------------------------------------------- longitudinal dynamics --

agents::WorkloadConfig MediumWorld(std::uint64_t seed) {
  agents::WorkloadConfig config;
  config.num_clusters = 10;
  config.num_teams = 40;
  config.min_machines_per_cluster = 20;
  config.max_machines_per_cluster = 40;
  config.seed = seed;
  return config;
}

exchange::MarketConfig FastMarket() {
  exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.max_rounds = 30000;
  return config;
}

TEST(MarketDynamicsTest, SixAuctionsRunToCompletion) {
  agents::World world = GenerateWorld(MediumWorld(101));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  for (int i = 0; i < 6; ++i) {
    const exchange::AuctionReport report = market.RunAuction();
    EXPECT_TRUE(report.converged) << "auction " << i;
    EXPECT_EQ(market.ledger().TotalBalance(), Money());  // Conservation.
  }
  EXPECT_EQ(market.AuctionCount(), 6);
}

TEST(MarketDynamicsTest, CongestedPricesCarryPremiums) {
  agents::World world = GenerateWorld(MediumWorld(202));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  const exchange::AuctionReport report = market.RunAuction();
  // Group pools by pre-auction utilization; the hot half must be priced
  // above the cold half relative to fixed prices.
  const std::vector<double> ratios = exchange::PriceRatios(report);
  double hot_sum = 0.0, cold_sum = 0.0;
  int hot_n = 0, cold_n = 0;
  for (std::size_t r = 0; r < ratios.size(); ++r) {
    if (std::isnan(ratios[r])) continue;
    if (report.pre_utilization[r] > 0.6) {
      hot_sum += ratios[r];
      ++hot_n;
    } else if (report.pre_utilization[r] < 0.3) {
      cold_sum += ratios[r];
      ++cold_n;
    }
  }
  ASSERT_GT(hot_n, 0);
  ASSERT_GT(cold_n, 0);
  EXPECT_GT(hot_sum / hot_n, cold_sum / cold_n);
}

TEST(MarketDynamicsTest, BidsFavorColdOffersFavorHotClusters) {
  // Figure 7's headline shape, asserted on aggregate medians.
  agents::World world = GenerateWorld(MediumWorld(303));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  market.RunAuction();
  std::vector<double> bid_pct, offer_pct;
  for (const exchange::AuctionReport& report : market.History()) {
    for (const exchange::TradeSample& t : report.trades) {
      (t.is_bid ? bid_pct : offer_pct).push_back(t.util_percentile);
    }
  }
  ASSERT_FALSE(bid_pct.empty());
  ASSERT_FALSE(offer_pct.empty());
  EXPECT_LT(stats::Median(bid_pct), stats::Median(offer_pct));
}

TEST(MarketDynamicsTest, MedianPremiumDeclinesAcrossAuctions) {
  // Table I's trend: as learners adapt, the median γ falls.
  agents::World world = GenerateWorld(MediumWorld(404));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  std::vector<double> medians;
  for (int i = 0; i < 4; ++i) {
    const exchange::AuctionReport report = market.RunAuction();
    if (report.premium.count > 0) {
      medians.push_back(report.premium.median);
    }
  }
  ASSERT_GE(medians.size(), 3u);
  EXPECT_LT(medians.back(), medians.front());
}

TEST(MarketDynamicsTest, UtilizationSpreadNarrows) {
  // The abstract's claim: the market reduces shortages/surpluses, i.e.
  // cross-pool utilization dispersion shrinks over repeated auctions.
  agents::World world = GenerateWorld(MediumWorld(505));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  const double spread_before =
      exchange::UtilizationSpread(world.fleet.UtilizationVector());
  for (int i = 0; i < 5; ++i) market.RunAuction();
  const double spread_after =
      exchange::UtilizationSpread(world.fleet.UtilizationVector());
  EXPECT_LT(spread_after, spread_before);
}

TEST(MarketDynamicsTest, TeamsMigrateFromCongestedClusters) {
  agents::World world = GenerateWorld(MediumWorld(606));
  // Pre-market utilization per cluster (CPU, the contended dimension).
  std::unordered_map<std::string, double> pre_util;
  std::vector<double> utils;
  for (const std::string& name : world.fleet.ClusterNames()) {
    const double u =
        world.fleet.ClusterByName(name).Utilization(ResourceKind::kCpu);
    pre_util[name] = u;
    utils.push_back(u);
  }
  const double median_util = stats::Median(utils);

  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  std::size_t vacating_hot = 0;
  std::size_t vacating_cold = 0;
  for (int i = 0; i < 6; ++i) {
    const exchange::AuctionReport report = market.RunAuction();
    for (const exchange::MoveRecord& move : report.moves) {
      if (move.from_cluster.empty()) continue;
      if (pre_util[move.from_cluster] > median_util) {
        ++vacating_hot;
      } else {
        ++vacating_cold;
      }
    }
  }
  // Departures concentrate in the congested half of the fleet (§V.B:
  // teams "offer resources on the market ... and move to less congested
  // clusters").
  EXPECT_GT(vacating_hot, 0u);
  EXPECT_GE(vacating_hot, vacating_cold);
}

TEST(MarketDynamicsTest, PeriodicProcessDrivesAuctions) {
  // The §V cadence: an auction every simulated week via the sim core.
  agents::World world = GenerateWorld(MediumWorld(707));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  sim::EventQueue queue;
  sim::PeriodicProcess auctions(queue, /*first_at=*/168.0,
                                /*period=*/168.0, [&](int tick) {
                                  market.RunAuction();
                                  return tick < 2;  // Three auctions.
                                });
  queue.RunAll();
  EXPECT_EQ(market.AuctionCount(), 3);
  EXPECT_DOUBLE_EQ(queue.Now(), 3 * 168.0);
}

TEST(MarketDynamicsTest, SummaryReflectsLatestAuction) {
  agents::World world = GenerateWorld(MediumWorld(808));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, FastMarket());
  market.RunAuction();
  market.RunAuction();
  const std::string out = exchange::RenderMarketSummary(market);
  EXPECT_NE(out.find("after auction #2"), std::string::npos);
}

TEST(MarketDynamicsTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    agents::World world = GenerateWorld(MediumWorld(909));
    exchange::Market market(&world.fleet, &world.agents,
                            world.fixed_prices, FastMarket());
    std::vector<double> prices;
    for (int i = 0; i < 3; ++i) {
      const exchange::AuctionReport report = market.RunAuction();
      prices.insert(prices.end(), report.settled_prices.begin(),
                    report.settled_prices.end());
    }
    return prices;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pm
