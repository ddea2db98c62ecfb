// Tests for pm::federation: the federated multi-market exchange.
//
// The contract under test is the determinism story of
// docs/federation.md: a federated epoch is (1) per shard bit-identical to
// running that shard's Market standalone with the same bids and seeds,
// (2) bit-identical across thread counts and across reruns, and (3) per
// shard bit-identical between the in-process serial path and the pm::net
// proxy-node path. Plus the router's placement property: every routable
// bid lands whole on exactly one shard.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "federation/federated_exchange.h"
#include "federation/report.h"
#include "federation/router.h"

namespace pm::federation {
namespace {

// ------------------------------------------------------------- fixtures --

agents::WorkloadConfig SmallWorkload() {
  agents::WorkloadConfig config;
  config.num_clusters = 4;
  config.num_teams = 12;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  return config;
}

exchange::MarketConfig FastMarket() {
  exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.max_rounds = 30000;
  return config;
}

std::vector<ShardSpec> FourShards(
    exchange::MarketConfig market = FastMarket()) {
  std::vector<ShardSpec> specs;
  for (int k = 0; k < 4; ++k) {
    ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload = SmallWorkload();
    spec.market = market;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bitwise equality for doubles (EXPECT_EQ would use ==, which is what we
/// want, but NaN premiums must also match).
void ExpectSameVector(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      EXPECT_TRUE(std::isnan(a[i]) && std::isnan(b[i])) << "index " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "index " << i;
    }
  }
}

void ExpectSameReport(const exchange::AuctionReport& a,
                      const exchange::AuctionReport& b) {
  EXPECT_EQ(a.num_bids, b.num_bids);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.converged, b.converged);
  ExpectSameVector(a.reserve_prices, b.reserve_prices);
  ExpectSameVector(a.settled_prices, b.settled_prices);
  ExpectSameVector(a.post_utilization, b.post_utilization);
  EXPECT_EQ(a.operator_revenue, b.operator_revenue);
  EXPECT_EQ(a.jobs_added, b.jobs_added);
  EXPECT_EQ(a.jobs_removed, b.jobs_removed);
  ASSERT_EQ(a.awards.size(), b.awards.size());
  for (std::size_t i = 0; i < a.awards.size(); ++i) {
    EXPECT_EQ(a.awards[i].team, b.awards[i].team);
    EXPECT_EQ(a.awards[i].bid_name, b.awards[i].bid_name);
    EXPECT_EQ(a.awards[i].bundle_index, b.awards[i].bundle_index);
    EXPECT_EQ(a.awards[i].payment, b.awards[i].payment);
  }
}

// ----------------------------------------------------------- seed wiring --

TEST(FederationSeedTest, ShardSeedsAreStableAndDistinct) {
  const std::uint64_t base = 777;
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(FederatedExchange::ShardWorkloadSeed(base, k),
              FederatedExchange::ShardWorkloadSeed(base, k));
    EXPECT_NE(FederatedExchange::ShardWorkloadSeed(base, k),
              FederatedExchange::ShardMarketSeed(base, k));
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_NE(FederatedExchange::ShardWorkloadSeed(base, k),
                FederatedExchange::ShardWorkloadSeed(base, j));
    }
  }
}

TEST(FederationSeedTest, MarketsWithDistinctSeedsHaveIndependentStreams) {
  agents::World world_a = GenerateWorld(SmallWorkload());
  agents::World world_b = GenerateWorld(SmallWorkload());
  exchange::MarketConfig config_a = FastMarket();
  exchange::MarketConfig config_b = FastMarket();
  config_a.seed = 1;
  config_b.seed = 2;
  exchange::Market a(&world_a.fleet, &world_a.agents, world_a.fixed_prices,
                     config_a);
  exchange::Market b(&world_b.fleet, &world_b.agents, world_b.fixed_prices,
                     config_b);
  EXPECT_EQ(a.seed(), 1u);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    any_diff = any_diff || (a.rng().NextRaw() != b.rng().NextRaw());
  }
  EXPECT_TRUE(any_diff) << "distinct seeds must give distinct streams";

  // Same seed ⇒ identical stream.
  agents::World world_c = GenerateWorld(SmallWorkload());
  exchange::Market c(&world_c.fleet, &world_c.agents, world_c.fixed_prices,
                     config_a);
  agents::World world_d = GenerateWorld(SmallWorkload());
  exchange::Market d(&world_d.fleet, &world_d.agents, world_d.fixed_prices,
                     config_a);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(c.rng().NextRaw(), d.rng().NextRaw());
  }
}

// ------------------------------------------- standalone shard equivalence --

TEST(FederatedExchangeTest, EpochMatchesStandaloneShardBitForBit) {
  FederationConfig config;
  config.seed = 20090425;
  FederatedExchange fed(FourShards(), config);

  // Two epochs federated...
  const FederationReport first = fed.RunEpoch();
  const FederationReport second = fed.RunEpoch();
  ASSERT_EQ(first.shards.size(), 4u);

  // ...must equal, per shard, two standalone auctions on a market rebuilt
  // from the same derived seeds.
  for (std::size_t k = 0; k < 4; ++k) {
    agents::WorkloadConfig workload = SmallWorkload();
    workload.seed = FederatedExchange::ShardWorkloadSeed(config.seed, k);
    exchange::MarketConfig market_config = FastMarket();
    market_config.seed = FederatedExchange::ShardMarketSeed(config.seed, k);
    agents::World world = GenerateWorld(workload);
    exchange::Market market(&world.fleet, &world.agents,
                            world.fixed_prices, market_config);
    ExpectSameReport(first.shards[k].report, market.RunAuction());
    ExpectSameReport(second.shards[k].report, market.RunAuction());
  }
}

TEST(FederatedExchangeTest, RoutedBidsReplayIdenticallyOnStandaloneShard) {
  FederationConfig config;
  config.seed = 99;
  config.router.policy = RoutingPolicy::kCheapestPrice;
  FederatedExchange fed(FourShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(500000));

  FederatedBid bid;
  bid.team = "globex";
  bid.tag = "rollout";
  bid.quantity = cluster::TaskShape{40.0, 160.0, 4.0};
  bid.limit = 100000.0;
  fed.SubmitFederatedBid(bid);

  const FederationReport report = fed.RunEpoch();
  ASSERT_EQ(report.routed.size(), 1u);
  const RoutedBid& routed = report.routed.front();

  // Rebuild the target shard standalone, inject the identical external
  // bid with the identical endowment, and compare bit for bit.
  agents::WorkloadConfig workload = SmallWorkload();
  workload.seed =
      FederatedExchange::ShardWorkloadSeed(config.seed, routed.shard);
  exchange::MarketConfig market_config = FastMarket();
  market_config.seed =
      FederatedExchange::ShardMarketSeed(config.seed, routed.shard);
  agents::World world = GenerateWorld(workload);
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          market_config);
  market.EndowTeam("globex", Money::FromDollars(500000),
                   "federation endowment");
  market.SubmitExternalBid(
      exchange::Market::ExternalBid{routed.team, routed.bid});
  ExpectSameReport(report.shards[routed.shard].report, market.RunAuction());
}

// ------------------------------------------------------------ determinism --

TEST(FederatedExchangeTest, EpochIsBitIdenticalAcrossThreadCounts) {
  std::vector<FederationReport> runs;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4},
                                    std::size_t{4}}) {
    FederationConfig config;
    config.seed = 4242;
    config.num_threads = threads;
    FederatedExchange fed(FourShards(), config);
    fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
    FederatedBid bid;
    bid.team = "globex";
    bid.tag = "burst";
    bid.quantity = cluster::TaskShape{16.0, 64.0, 2.0};
    bid.limit = 20000.0;
    fed.SubmitFederatedBid(bid);
    fed.RunEpoch();
    runs.push_back(fed.RunEpoch());  // Second epoch: compounded state.
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[0].shards.size(), runs[i].shards.size());
    EXPECT_EQ(runs[0].total_bids, runs[i].total_bids);
    EXPECT_EQ(runs[0].operator_revenue, runs[i].operator_revenue);
    EXPECT_EQ(runs[0].utilization_spread, runs[i].utilization_spread);
    for (std::size_t k = 0; k < runs[0].shards.size(); ++k) {
      ExpectSameReport(runs[0].shards[k].report, runs[i].shards[k].report);
    }
  }
}

// --------------------------------------------------------- proxy-node path --

TEST(FederatedExchangeTest, SerialAndProxyNodePathsAreBitIdentical) {
  const exchange::MarketConfig market = FastMarket();

  FederationConfig serial_config;
  serial_config.seed = 31337;
  FederatedExchange serial(FourShards(market), serial_config);

  FederationConfig proxy_config;
  proxy_config.seed = 31337;
  proxy_config.proxy_nodes_per_shard = 3;
  FederatedExchange proxied(FourShards(market), proxy_config);

  const FederationReport serial_report = serial.RunEpoch();
  const FederationReport proxy_report = proxied.RunEpoch();
  ASSERT_EQ(serial_report.shards.size(), proxy_report.shards.size());
  for (std::size_t k = 0; k < serial_report.shards.size(); ++k) {
    ExpectSameReport(serial_report.shards[k].report,
                     proxy_report.shards[k].report);
    // Distribution changes where the work runs, not the mechanism — but
    // it must actually have gone over the wire.
    EXPECT_EQ(serial_report.shards[k].report.transport_messages, 0);
    EXPECT_GT(proxy_report.shards[k].report.transport_messages, 0);
    EXPECT_GT(proxy_report.shards[k].report.transport_bytes, 0);
  }
  EXPECT_GT(proxy_report.transport_messages, 0);
}

TEST(FederatedExchangeTest, RejectsBadFederatedBidsAtSubmitTime) {
  FederationConfig config;
  FederatedExchange fed(FourShards(), config);
  FederatedBid no_team;
  no_team.quantity = cluster::TaskShape{1.0, 1.0, 0.0};
  no_team.limit = 10.0;
  EXPECT_THROW(fed.SubmitFederatedBid(no_team), CheckFailure);
  FederatedBid bad_home;
  bad_home.team = "t";
  bad_home.quantity = cluster::TaskShape{1.0, 1.0, 0.0};
  bad_home.limit = 10.0;
  bad_home.home_shard = "atlantis";
  EXPECT_THROW(fed.SubmitFederatedBid(bad_home), CheckFailure);
  // A non-finite quantity would make the router throw inside RunEpoch;
  // a negative one would be silently dropped there.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    FederatedBid bad_quantity;
    bad_quantity.team = "t";
    bad_quantity.quantity = cluster::TaskShape{16.0, bad, 2.0};
    bad_quantity.limit = 10.0;
    EXPECT_THROW(fed.SubmitFederatedBid(bad_quantity), CheckFailure) << bad;
  }
  EXPECT_EQ(fed.PendingFederatedBids(), 0u);  // Nothing wedged the queue.
  EXPECT_NO_THROW(fed.RunEpoch());
}

TEST(FederatedExchangeTest, RejectsPerShardWireSettings) {
  // The wire path is federation-wide; a per-shard setting would be
  // silently overwritten, so it is rejected instead.
  exchange::MarketConfig market = FastMarket();
  market.distributed_proxy_nodes = 2;
  EXPECT_THROW(
      FederatedExchange(FourShards(market), FederationConfig{}),
      CheckFailure);
}

// ----------------------------------------------------------------- router --

/// Builds a synthetic two-cluster shard view with uniform prices.
ShardView MakeView(const std::string& name, PoolRegistry& registry,
                   double reserve_scale, double free_units) {
  ShardView view;
  view.name = name;
  for (const char* cluster : {"a", "b"}) {
    for (ResourceKind kind : kAllResourceKinds) {
      registry.Intern(PoolKey{std::string(name) + "-" + cluster, kind});
    }
  }
  view.registry = &registry;
  view.fixed_prices.assign(registry.size(), 1.0);
  view.reserve_prices.assign(registry.size(), reserve_scale);
  view.free_capacity.assign(registry.size(), free_units);
  return view;
}

struct RouterFixture {
  std::vector<PoolRegistry> registries;
  std::vector<ShardView> views;

  explicit RouterFixture(std::vector<std::pair<double, double>> shards) {
    registries.resize(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      views.push_back(MakeView("shard" + std::to_string(s), registries[s],
                               shards[s].first, shards[s].second));
    }
  }
};

double BundleTotal(const bid::Bid& bid) {
  double total = 0.0;
  for (const bid::BundleItem& item : bid.bundles.front().items()) {
    total += item.qty;
  }
  return total;
}

TEST(MarketRouterTest, NonSplitPoliciesPlaceEveryBidOnExactlyOneShard) {
  RouterFixture fixture({{1.0, 100.0}, {2.0, 100.0}, {3.0, 100.0}});
  RandomStream rng(7);
  std::vector<FederatedBid> bids;
  for (int i = 0; i < 64; ++i) {
    FederatedBid bid;
    bid.team = "t" + std::to_string(i);
    bid.quantity = cluster::TaskShape{rng.Uniform(1.0, 40.0),
                                      rng.Uniform(1.0, 80.0),
                                      rng.Uniform(0.0, 4.0)};
    bid.limit = rng.Uniform(10.0, 1000.0);
    bid.home_shard = "shard" + std::to_string(rng.UniformInt(0, 2));
    bids.push_back(std::move(bid));
  }
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHomeAffinity, RoutingPolicy::kCheapestPrice}) {
    RouterConfig config;
    config.policy = policy;
    config.spill_threshold = 100.0;  // Nothing spills here.
    MarketRouter router(config, fixture.views);
    const RoutingResult result = router.Route(bids);
    ASSERT_EQ(result.decisions.size(), bids.size());
    ASSERT_EQ(result.routed.size(), bids.size());
    for (std::size_t i = 0; i < bids.size(); ++i) {
      ASSERT_TRUE(result.decisions[i].shard.has_value()) << ToString(policy);
      EXPECT_LT(*result.decisions[i].shard, fixture.views.size());
      EXPECT_FALSE(result.decisions[i].spilled);
    }
    // Quantity is conserved bid-for-bid.
    for (std::size_t i = 0; i < bids.size(); ++i) {
      double requested = 0.0;
      for (ResourceKind kind : kAllResourceKinds) {
        requested += bids[i].quantity.Of(kind);
      }
      EXPECT_NEAR(BundleTotal(result.routed[i].bid), requested, 1e-12);
      EXPECT_EQ(result.routed[i].bid.limit, bids[i].limit);
    }
  }
}

TEST(MarketRouterTest, SpilloverReroutesOffHotShard) {
  // shard0 quotes 10x its fixed cost (hot); shard1 is at par.
  RouterFixture fixture({{10.0, 100.0}, {1.0, 100.0}});
  RouterConfig config;
  config.policy = RoutingPolicy::kHomeAffinity;
  config.spill_threshold = 3.0;
  MarketRouter router(config, fixture.views);
  FederatedBid bid;
  bid.team = "t";
  bid.quantity = cluster::TaskShape{10.0, 10.0, 1.0};
  bid.limit = 1000.0;
  bid.home_shard = "shard0";
  const RoutingResult result = router.Route({bid});
  ASSERT_EQ(result.routed.size(), 1u);
  EXPECT_EQ(result.decisions[0].preferred_shard, 0u);
  EXPECT_TRUE(result.decisions[0].spilled);
  EXPECT_EQ(result.routed[0].shard, 1u);
  EXPECT_GT(result.decisions[0].preferred_heat, 3.0);

  // Under a lax threshold the same bid stays home.
  config.spill_threshold = 50.0;
  MarketRouter lax(config, fixture.views);
  const RoutingResult stay = lax.Route({bid});
  EXPECT_FALSE(stay.decisions[0].spilled);
  EXPECT_EQ(stay.routed[0].shard, 0u);
}

TEST(MarketRouterTest, ShardsMissingARequestedKindAreSkippedNotFatal) {
  // shard0's registry covers only CPU; shard1 covers everything. A bid
  // asking for RAM must skip shard0 (even though it is cheaper) instead
  // of aborting the routing pass.
  PoolRegistry cpu_only;
  cpu_only.Intern(PoolKey{"solo", ResourceKind::kCpu});
  ShardView partial;
  partial.name = "cpu-only";
  partial.registry = &cpu_only;
  partial.reserve_prices.assign(cpu_only.size(), 0.1);
  partial.free_capacity.assign(cpu_only.size(), 1000.0);
  partial.fixed_prices.assign(cpu_only.size(), 1.0);
  PoolRegistry full;
  std::vector<ShardView> views{partial, MakeView("full", full, 5.0, 100.0)};

  FederatedBid bid;
  bid.team = "t";
  bid.quantity = cluster::TaskShape{4.0, 16.0, 0.0};
  bid.limit = 100.0;
  bid.home_shard = "cpu-only";
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHomeAffinity, RoutingPolicy::kCheapestPrice}) {
    RouterConfig config;
    config.policy = policy;
    config.spill_threshold = 100.0;
    MarketRouter router(config, views);
    const RoutingResult result = router.Route({bid});
    ASSERT_EQ(result.routed.size(), 1u) << ToString(policy);
    EXPECT_EQ(result.routed[0].shard, 1u) << ToString(policy);
  }
  // A kind no shard covers is recorded as unroutable, not fatal.
  FederatedBid impossible = bid;
  impossible.quantity = cluster::TaskShape{0.0, 8.0, 0.0};
  PoolRegistry cpu_only2;
  cpu_only2.Intern(PoolKey{"solo", ResourceKind::kCpu});
  ShardView partial2 = partial;
  partial2.registry = &cpu_only2;
  MarketRouter only_cpu(RouterConfig{}, {partial2});
  const RoutingResult none = only_cpu.Route({impossible});
  EXPECT_TRUE(none.routed.empty());
  ASSERT_EQ(none.decisions.size(), 1u);
  EXPECT_FALSE(none.decisions[0].shard.has_value());
}

TEST(MarketRouterTest, UnroutableBidsAreRecordedWithoutParts) {
  RouterFixture fixture({{1.0, 100.0}});
  MarketRouter router(RouterConfig{}, fixture.views);
  FederatedBid zero_quantity;
  zero_quantity.team = "t";
  zero_quantity.limit = 10.0;
  FederatedBid zero_limit;
  zero_limit.team = "t";
  zero_limit.quantity = cluster::TaskShape{1.0, 1.0, 0.0};
  const RoutingResult result = router.Route({zero_quantity, zero_limit});
  EXPECT_TRUE(result.routed.empty());
  ASSERT_EQ(result.decisions.size(), 2u);
  EXPECT_FALSE(result.decisions[0].shard.has_value());
  EXPECT_FALSE(result.decisions[1].shard.has_value());
}

// --------------------------------------------------------- reporting plane --

TEST(FederationReportTest, AggregatesAcrossShards) {
  FederationConfig config;
  config.seed = 55;
  FederatedExchange fed(FourShards(), config);
  const FederationReport report = fed.RunEpoch();
  std::size_t bids = 0;
  double revenue = 0.0;
  for (const ShardEpochSummary& shard : report.shards) {
    bids += shard.report.num_bids;
    revenue += shard.report.operator_revenue;
  }
  EXPECT_EQ(report.total_bids, bids);
  EXPECT_EQ(report.operator_revenue, revenue);
  EXPECT_EQ(report.utilization_deciles.size(), 9u);
  for (std::size_t i = 1; i < report.utilization_deciles.size(); ++i) {
    EXPECT_GE(report.utilization_deciles[i],
              report.utilization_deciles[i - 1]);
  }
  const std::string page = RenderFederationSummary(report);
  EXPECT_NE(page.find("planet"), std::string::npos);
  EXPECT_NE(page.find("region-0"), std::string::npos);
}

// ----------------------------------------------- external bids (exchange) --

TEST(ExternalBidTest, SettlesThroughTheNormalPath) {
  agents::World world = GenerateWorld(SmallWorkload());
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          FastMarket());
  market.EndowTeam("offworld", Money::FromDollars(1000000),
                   "test endowment");

  // A concrete bid in the market's own pool space, generous limit. Target
  // the cluster with the most CPU headroom so placement cannot fail.
  std::string cluster;
  double best_free = -1.0;
  for (const std::string& name : world.fleet.ClusterNames()) {
    const double free = world.fleet.FreeShape(name).cpu;
    if (free > best_free) {
      best_free = free;
      cluster = name;
    }
  }
  const PoolRegistry& registry = world.fleet.registry();
  std::vector<bid::BundleItem> items;
  items.push_back(bid::BundleItem{
      *registry.Find(PoolKey{cluster, ResourceKind::kCpu}), 8.0});
  items.push_back(bid::BundleItem{
      *registry.Find(PoolKey{cluster, ResourceKind::kRam}), 32.0});
  bid::Bid bid;
  bid.name = "fed/offworld/landing";
  bid.bundles.emplace_back(std::move(items));
  bid.limit = 500000.0;
  market.SubmitExternalBid(
      exchange::Market::ExternalBid{"offworld", bid});
  EXPECT_EQ(market.PendingExternalBids(), 1u);

  const exchange::AuctionReport report = market.RunAuction();
  EXPECT_EQ(market.PendingExternalBids(), 0u);
  bool awarded = false;
  for (const exchange::AwardRecord& award : report.awards) {
    if (award.team == "offworld") {
      awarded = true;
      EXPECT_EQ(award.bid_name, "fed/offworld/landing");
    }
  }
  ASSERT_TRUE(awarded) << "a generous uncontested buy bid must win";
  // The external team's jobs are physically placed and its quota charged.
  bool has_job = false;
  for (const cluster::JobLocation& loc : world.fleet.AllJobs()) {
    const cluster::Job* job =
        world.fleet.ClusterByName(loc.cluster).FindJob(loc.job);
    if (job != nullptr && job->team == "offworld") has_job = true;
  }
  EXPECT_TRUE(has_job);
  EXPECT_LT(market.TeamBudget("offworld"), Money::FromDollars(1000000));
}

TEST(ExternalBidTest, UnfundedExternalBuyIsRejectedAndCounted) {
  agents::World world = GenerateWorld(SmallWorkload());
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          FastMarket());
  // No endowment: the buy limit clamps to the zero budget and the bid is
  // rejected at the gate — visibly, not silently.
  bid::Bid bid;
  bid.name = "fed/ghost/unfunded";
  bid.bundles.push_back(bid::Bundle{bid::BundleItem{0, 4.0}});
  bid.limit = 1000.0;
  market.SubmitExternalBid(exchange::Market::ExternalBid{"ghost", bid});
  const exchange::AuctionReport report = market.RunAuction();
  EXPECT_EQ(report.external_rejected, 1u);
  // The per-bid trace names the starved bid and blames the budget gate,
  // not validation — the signal routing layers assert on.
  ASSERT_EQ(report.external_rejections.size(), 1u);
  EXPECT_EQ(report.external_rejections[0].team, "ghost");
  EXPECT_EQ(report.external_rejections[0].bid_name, "fed/ghost/unfunded");
  EXPECT_EQ(report.external_rejections[0].reason,
            exchange::ExternalRejection::Reason::kBudget);
  for (const exchange::AwardRecord& award : report.awards) {
    EXPECT_NE(award.team, "ghost");
  }
}

}  // namespace
}  // namespace pm::federation
