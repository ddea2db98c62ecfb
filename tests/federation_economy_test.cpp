// Tests for the planet-wide economy layer: federation treasury,
// cross-shard arbitrage, and fleet rebalancing.
//
// The load-bearing contract is money conservation: the planet's
// circulating supply (Σ team balances + Σ shard floats + Σ shard-net)
// equals TotalMinted − TotalBurned at every point of a multi-epoch
// federated run — including under arbitrage and cluster migration — and
// between epochs every shard float and every federated team's shard-local
// budget is exactly zero. Plus the migration determinism contract: two
// runs from the same seeds migrate the same clusters at the same epochs.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/bench_meta.h"
#include "common/check.h"
#include "exchange/endowment.h"
#include "federation/arbitrage.h"
#include "federation/economy.h"
#include "federation/federated_exchange.h"
#include "federation/rebalance.h"

namespace pm::federation {
namespace {

// ------------------------------------------------------------- fixtures --

agents::WorkloadConfig SmallWorkload(double util_lo = 0.10,
                                     double util_hi = 0.96) {
  agents::WorkloadConfig config;
  config.num_clusters = 4;
  config.num_teams = 12;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  config.min_target_utilization = util_lo;
  config.max_target_utilization = util_hi;
  return config;
}

exchange::MarketConfig FastMarket() {
  exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.max_rounds = 30000;
  return config;
}

/// One hot shard and `cool` cool ones — the spread generator.
std::vector<ShardSpec> HotCoolShards(std::size_t cool = 1) {
  std::vector<ShardSpec> specs;
  ShardSpec hot;
  hot.name = "hot";
  hot.workload = SmallWorkload(0.78, 0.95);
  hot.market = FastMarket();
  specs.push_back(std::move(hot));
  for (std::size_t k = 0; k < cool; ++k) {
    ShardSpec spec;
    spec.name = "cool-" + std::to_string(k);
    spec.workload = SmallWorkload(0.08, 0.28);
    spec.market = FastMarket();
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectConserved(const FederationTreasury& treasury) {
  EXPECT_EQ(treasury.CirculatingSupply(),
            treasury.TotalMinted() - treasury.TotalBurned());
  EXPECT_EQ(treasury.ledger().TotalBalance(), Money());
}

// ------------------------------------------------------- treasury units --

TEST(FederationTreasuryTest, MintPushSweepConservesMoney) {
  FederationTreasury treasury({"a", "b"});
  treasury.Mint("globex", Money::FromDollars(1000), "seed");
  ExpectConserved(treasury);
  EXPECT_EQ(treasury.TotalMinted(), Money::FromDollars(1000));
  EXPECT_EQ(treasury.PlanetBalance("globex"), Money::FromDollars(1000));

  // Push 400 into shard 0; team keeps 600, float holds 400.
  const Money granted = treasury.PushAllowance(
      "globex", 0, Money::FromDollars(400), /*epoch=*/0);
  EXPECT_EQ(granted, Money::FromDollars(400));
  EXPECT_EQ(treasury.ShardFloat(0), Money::FromDollars(400));
  EXPECT_EQ(treasury.Outstanding("globex", 0), Money::FromDollars(400));
  ExpectConserved(treasury);

  // The shard reports 150 left: 150 returns, 250 was spent there.
  treasury.Sweep("globex", 0, Money::FromDollars(150), /*epoch=*/0);
  EXPECT_EQ(treasury.ShardFloat(0), Money());
  EXPECT_EQ(treasury.Outstanding("globex", 0), Money());
  EXPECT_EQ(treasury.PlanetBalance("globex"), Money::FromDollars(750));
  EXPECT_EQ(treasury.ShardNet(0), Money::FromDollars(250));
  ExpectConserved(treasury);
}

TEST(FederationTreasuryTest, SweepHandlesLocalEarnings) {
  FederationTreasury treasury({"solo", "other"});
  treasury.Mint("seller", Money::FromDollars(100), "seed");
  treasury.PushAllowance("seller", 0, Money::FromDollars(100), 0);
  // The team sold resources locally and ended the epoch with MORE than
  // its allowance: the extra is drawn from the shard's net account,
  // which goes negative (the shard operator was a net payer).
  treasury.Sweep("seller", 0, Money::FromDollars(130), 0);
  EXPECT_EQ(treasury.PlanetBalance("seller"), Money::FromDollars(130));
  EXPECT_EQ(treasury.ShardNet(0), -Money::FromDollars(30));
  EXPECT_EQ(treasury.ShardFloat(0), Money());
  ExpectConserved(treasury);
}

TEST(FederationTreasuryTest, AllowanceClampsToPlanetBalance) {
  FederationTreasury treasury({"a"});
  treasury.Mint("t", Money::FromDollars(50), "seed");
  EXPECT_EQ(treasury.PushAllowance("t", 0, Money::FromDollars(80), 0),
            Money::FromDollars(50));
  EXPECT_EQ(treasury.PushAllowance("t", 0, Money::FromDollars(80), 0),
            Money());
  ExpectConserved(treasury);
}

TEST(FederationTreasuryTest, BurnRetiresCurrencyExplicitly) {
  FederationTreasury treasury({"a"});
  treasury.Mint("t", Money::FromDollars(10), "seed");
  EXPECT_EQ(treasury.Burn("t", Money::FromDollars(25), "sunset"),
            Money::FromDollars(10));  // Clamped to the balance.
  EXPECT_EQ(treasury.CirculatingSupply(), Money());
  EXPECT_EQ(treasury.TotalBurned(), Money::FromDollars(10));
  ExpectConserved(treasury);
  // Every movement left an explicit record.
  ASSERT_EQ(treasury.Transfers().size(), 2u);
  EXPECT_EQ(treasury.Transfers()[0].kind, CrossShardTransfer::Kind::kMint);
  EXPECT_EQ(treasury.Transfers()[1].kind, CrossShardTransfer::Kind::kBurn);
}

TEST(SplitEvenlyTest, ConservesEveryMicro) {
  const Money total = Money::FromMicros(1000000007);  // Not divisible.
  const std::vector<Money> parts = exchange::SplitEvenly(total, 3);
  ASSERT_EQ(parts.size(), 3u);
  Money sum;
  for (const Money part : parts) sum += part;
  EXPECT_EQ(sum, total);
  EXPECT_LE(parts.front() - parts.back(), Money::FromMicros(1));
}

// --------------------------------------- conservation across a full run --

TEST(FederationEconomyTest, MoneyConservedAcrossMultiEpochRun) {
  FederationConfig config;
  config.seed = 20090425;
  config.economy.treasury = true;
  config.economy.arbitrage.enabled = true;
  config.economy.arbitrage.margin = Money::FromDollars(500000);
  config.economy.arbitrage.min_spread = 0.05;
  config.economy.arbitrage.buy_fraction = 0.20;
  config.economy.rebalance.enabled = true;
  config.economy.rebalance.spread_threshold = 0.20;
  config.economy.rebalance.consecutive_epochs = 2;
  FederatedExchange fed(HotCoolShards(/*cool=*/2), config);
  ASSERT_NE(fed.treasury(), nullptr);

  fed.EndowFederatedTeam("globex", Money::FromDollars(200000));
  fed.EndowFederatedTeam("initech", Money::FromDollars(50000));

  const FederationTreasury& treasury = *fed.treasury();
  const Money minted_after_endow = treasury.TotalMinted();
  // Planet-wide mints: 2 teams × shards, plus the arbitrage margin.
  EXPECT_EQ(minted_after_endow,
            Money::FromDollars(200000) * 3 + Money::FromDollars(50000) * 3 +
                Money::FromDollars(500000));

  bool any_migration = false;
  for (int e = 0; e < 5; ++e) {
    FederatedBid bid;
    bid.team = "globex";
    bid.tag = "wave" + std::to_string(e);
    bid.quantity = cluster::TaskShape{16.0, 64.0, 2.0};
    bid.limit = 30000.0;
    fed.SubmitFederatedBid(bid);
    const FederationReport report = fed.RunEpoch();
    any_migration = any_migration || !report.migrations.empty();

    // The conservation invariant, after every epoch's settlement sweep:
    // circulating supply equals net mints, floats are empty, and every
    // federated dollar is back on the planet ledger.
    ExpectConserved(treasury);
    EXPECT_EQ(treasury.TotalMinted(), minted_after_endow)
        << "no hidden mints during epochs";
    EXPECT_EQ(treasury.FloatTotal(), Money());
    for (const std::string& team : treasury.Teams()) {
      for (std::size_t k = 0; k < fed.NumShards(); ++k) {
        EXPECT_EQ(treasury.Outstanding(team, k), Money());
        EXPECT_EQ(fed.ShardMarket(k).TeamBudget(team), Money())
            << team << " still holds money in shard " << k;
      }
    }
    // Every shard's own double-entry ledger stays balanced too.
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      EXPECT_EQ(fed.ShardMarket(k).ledger().TotalBalance(), Money());
    }
    // The snapshot in the report mirrors the treasury.
    EXPECT_TRUE(report.treasury.enabled);
    EXPECT_DOUBLE_EQ(report.treasury.minted,
                     treasury.TotalMinted().ToDouble());
  }
  // The hot/cool construction must actually have exercised rebalancing,
  // or the conservation claim above proved less than it says.
  EXPECT_TRUE(any_migration);
  // And arbitrage must have traded.
  ASSERT_NE(fed.arbitrageur(), nullptr);
  EXPECT_GT(fed.History().back().arbitrage.buys_planned +
                fed.History().back().arbitrage.sells_planned +
                fed.arbitrageur()->TotalHoldingsUnits(),
            0.0);
}

TEST(FederationEconomyTest, MoneyConservedWithMoveBillingOn) {
  // The bill_moves satellite: §V.B reconfiguration charges are ordinary
  // intra-shard transfers, so the planet conservation invariant must
  // keep holding — federated movers' bills surface as shard spend at
  // the sweep, never as hidden mints or burns.
  FederationConfig config;
  config.seed = 20090425;
  config.economy.treasury = true;
  std::vector<ShardSpec> shards = HotCoolShards(/*cool=*/1);
  for (ShardSpec& shard : shards) {
    shard.market.settlement.move_cost_weights =
        cluster::TaskShape{1.0, 0.05, 0.2};
    shard.market.settlement.bill_moves = true;
  }
  FederatedExchange fed(std::move(shards), config);
  ASSERT_NE(fed.treasury(), nullptr);
  fed.EndowFederatedTeam("globex", Money::FromDollars(500000));

  double billed = 0.0;
  for (int e = 0; e < 4; ++e) {
    FederatedBid bid;
    bid.team = "globex";
    bid.tag = "grow" + std::to_string(e);
    bid.quantity = cluster::TaskShape{16.0, 64.0, 2.0};
    bid.limit = 30000.0;
    fed.SubmitFederatedBid(bid);
    const FederationReport report = fed.RunEpoch();
    billed += report.move_billing_total;
    ExpectConserved(*fed.treasury());
    EXPECT_EQ(fed.treasury()->FloatTotal(), Money());
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      EXPECT_EQ(fed.ShardMarket(k).ledger().TotalBalance(), Money());
    }
  }
  // The gate must actually have billed something, or this proved less
  // than it claims.
  EXPECT_GT(billed, 0.0);
}

TEST(FederationEconomyTest, RetireFederatedTeamBurnsRemainingMoney) {
  FederationConfig config;
  config.seed = 20090425;
  config.economy.treasury = true;
  FederatedExchange fed(HotCoolShards(/*cool=*/1), config);
  ASSERT_NE(fed.treasury(), nullptr);
  fed.EndowFederatedTeam("ephemeral", Money::FromDollars(1000));

  const Money burned_before = fed.treasury()->TotalBurned();
  const Money removed = fed.RetireFederatedTeam("ephemeral");
  EXPECT_EQ(removed, Money::FromDollars(2000));  // 2 shards × $1000.
  EXPECT_TRUE(fed.treasury()->PlanetBalance("ephemeral").IsZero());
  EXPECT_EQ(fed.treasury()->TotalBurned(), burned_before + removed);
  ExpectConserved(*fed.treasury());

  // Retired means retired: the next epoch pushes no allowance and the
  // ledger stays conserved.
  fed.RunEpoch();
  EXPECT_TRUE(fed.ShardMarket(0).TeamBudget("ephemeral").IsZero());
  ExpectConserved(*fed.treasury());

  // Unknown teams retire to zero, harmlessly.
  EXPECT_TRUE(fed.RetireFederatedTeam("never-existed").IsZero());
}

// ------------------------------------- outcome-aware conservation ------

// With every outcome gate on (refunds, outcome-aware arbitrage
// warehouse, priced moves) and the shards running over the pm::net proxy
// wire path, every award's buy side conserves units —
// awarded == placed + refunded — and the treasury invariant keeps
// covering the refund flow (refunds land in the team's shard-local
// balance and are swept back to the planet ledger like any other
// dollar).
TEST(FederationEconomyTest, OutcomeConservationUnderFullEconomyAndProxyWire) {
  FederationConfig config;
  config.seed = 20090425;
  config.proxy_nodes_per_shard = 2;
  config.economy.treasury = true;
  config.economy.arbitrage.enabled = true;
  config.economy.arbitrage.margin = Money::FromDollars(500000);
  config.economy.arbitrage.min_spread = 0.05;
  config.economy.arbitrage.buy_fraction = 0.20;
  config.economy.arbitrage.outcome_aware = true;
  config.economy.rebalance.enabled = true;
  config.economy.rebalance.spread_threshold = 0.20;
  config.economy.rebalance.consecutive_epochs = 2;
  config.economy.rebalance.move_cost_weights =
      cluster::TaskShape{0.001, 0.001, 0.001};
  std::vector<ShardSpec> specs = HotCoolShards(/*cool=*/2);
  for (ShardSpec& spec : specs) {
    spec.market.settlement.refund_unplaced = true;
    // No task splitting: large routed buys materialize as single tasks,
    // which guarantees some bin-packing failures to exercise the refund
    // path (pool-level supply still covers them).
    spec.market.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  }
  FederatedExchange fed(std::move(specs), config);
  ASSERT_NE(fed.treasury(), nullptr);
  fed.EndowFederatedTeam("globex", Money::FromDollars(200000));

  const FederationTreasury& treasury = *fed.treasury();
  double cumulative_refunds = 0.0;
  std::size_t cumulative_failures = 0;
  double arb_placed_units = 0.0;
  ASSERT_NE(fed.arbitrageur(), nullptr);
  const std::string arb_team = fed.arbitrageur()->team();
  for (int e = 0; e < 5; ++e) {
    FederatedBid bid;
    bid.team = "globex";
    bid.tag = "wave" + std::to_string(e);
    bid.quantity = cluster::TaskShape{60.0, 240.0, 8.0};
    bid.limit = 30000.0;
    fed.SubmitFederatedBid(bid);
    const FederationReport report = fed.RunEpoch();

    // Unit conservation, award by award and in aggregate.
    double awarded = 0.0, placed = 0.0, refunded = 0.0, refunds = 0.0;
    for (const ShardEpochSummary& shard : report.shards) {
      for (const exchange::AwardRecord& award : shard.report.awards) {
        const exchange::PlacementOutcome& outcome = award.outcome;
        if (outcome.quota_only) {
          EXPECT_DOUBLE_EQ(outcome.placed_units, outcome.awarded_units);
          continue;
        }
        EXPECT_NEAR(outcome.awarded_units,
                    outcome.placed_units + outcome.refunded_units, 1e-6)
            << award.bid_name;
        awarded += outcome.awarded_units;
        placed += outcome.placed_units;
        refunded += outcome.refunded_units;
        refunds += outcome.refund;
        if (award.team == arb_team) {
          arb_placed_units += outcome.placed_units;
        }
      }
    }
    EXPECT_NEAR(awarded, placed + refunded, 1e-6);
    EXPECT_NEAR(report.refund_total, refunds, 1e-9);
    cumulative_refunds += report.refund_total;
    cumulative_failures +=
        report.placement_failures + report.partial_placements;

    // The treasury invariant holds with refunds in the flow: floats
    // empty, local budgets (refunds included) swept back to the planet.
    ExpectConserved(treasury);
    EXPECT_EQ(treasury.FloatTotal(), Money());
    for (const std::string& team : treasury.Teams()) {
      for (std::size_t k = 0; k < fed.NumShards(); ++k) {
        EXPECT_EQ(fed.ShardMarket(k).TeamBudget(team), Money());
      }
    }
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      EXPECT_EQ(fed.ShardMarket(k).ledger().TotalBalance(), Money());
    }
  }
  // The single-task fixture must actually have exercised the outcome
  // machinery, or the conservation above proved less than it says.
  EXPECT_GT(cumulative_failures, 0u);
  EXPECT_GT(cumulative_refunds, 0.0);
  // The outcome-aware warehouse is exact physical backing: sells only
  // shrink it, so it can never hold more than the buys that physically
  // placed — an invariant quota-backed accounting breaks whenever an
  // arbitrage buy fails bin-packing.
  ASSERT_NE(fed.arbitrageur(), nullptr);
  EXPECT_LE(fed.arbitrageur()->TotalHoldingsUnits(),
            arb_placed_units + 1e-6);
}

// --------------------------------------------------- disabled == PR 2 --

TEST(FederationEconomyTest, DisabledEconomyKeepsLegacyPathAndNullObjects) {
  FederationConfig config;
  config.seed = 777;
  FederatedExchange fed(HotCoolShards(), config);
  EXPECT_EQ(fed.treasury(), nullptr);
  EXPECT_EQ(fed.arbitrageur(), nullptr);
  EXPECT_EQ(fed.rebalancer(), nullptr);
  // Legacy endowment semantics: money minted in every local ledger.
  fed.EndowFederatedTeam("globex", Money::FromDollars(1000));
  for (std::size_t k = 0; k < fed.NumShards(); ++k) {
    EXPECT_EQ(fed.ShardMarket(k).TeamBudget("globex"),
              Money::FromDollars(1000));
  }
  const FederationReport report = fed.RunEpoch();
  EXPECT_FALSE(report.treasury.enabled);
  EXPECT_FALSE(report.arbitrage.enabled);
  EXPECT_TRUE(report.migrations.empty());
}

TEST(FederationEconomyTest, FederatedTeamMayNotShadowAResidentTeam) {
  FederationConfig config;
  config.economy.treasury = true;
  FederatedExchange fed(HotCoolShards(), config);
  // Workload-generated residents are named "team-%03d"; endowing a
  // federated team under that name would let the sweep confiscate the
  // resident's local budget every epoch.
  EXPECT_THROW(
      fed.EndowFederatedTeam("team-001", Money::FromDollars(1000)),
      CheckFailure);
  // A non-colliding name is accepted.
  fed.EndowFederatedTeam("globex", Money::FromDollars(1000));
  EXPECT_EQ(fed.treasury()->PlanetBalance("globex"),
            Money::FromDollars(1000) * 2);
}

TEST(FederationEconomyTest, ArbitrageRequiresTreasury) {
  FederationConfig config;
  config.economy.arbitrage.enabled = true;  // treasury left off.
  EXPECT_THROW(FederatedExchange(HotCoolShards(), config), CheckFailure);
}

// ------------------------------------------------------------ migration --

TEST(MarketMigrationTest, ExtractAdoptMovesClusterIntact) {
  agents::World source = GenerateWorld(SmallWorkload());
  agents::World dest = GenerateWorld(SmallWorkload());
  exchange::Market source_market(&source.fleet, &source.agents,
                                 source.fixed_prices, FastMarket());
  exchange::Market dest_market(&dest.fleet, &dest.agents,
                               dest.fixed_prices, FastMarket());

  const std::string victim = source.fleet.ClusterNames().front();
  const std::size_t source_clusters = source.fleet.NumClusters();
  const std::size_t dest_clusters = dest.fleet.NumClusters();
  const std::size_t dest_pools = dest.fleet.NumPools();
  const cluster::Cluster& before = source.fleet.ClusterByName(victim);
  const std::size_t moved_jobs = before.jobs().size();
  const double moved_capacity = before.Capacity(ResourceKind::kCpu);
  ASSERT_GT(moved_jobs, 0u);

  cluster::Cluster moved = source_market.ExtractCluster(victim);
  EXPECT_EQ(source.fleet.NumClusters(), source_clusters - 1);
  EXPECT_FALSE(source.fleet.HasCluster(victim));
  // Pools survive extraction at zero capacity (PoolIds are stable).
  const auto pool =
      source.fleet.registry().Find(PoolKey{victim, ResourceKind::kCpu});
  ASSERT_TRUE(pool.has_value());
  EXPECT_EQ(source.fleet.CapacityVector()[*pool], 0.0);

  moved.SetName(victim + "@src");
  dest_market.AdoptCluster(std::move(moved));
  EXPECT_EQ(dest.fleet.NumClusters(), dest_clusters + 1);
  EXPECT_EQ(dest.fleet.NumPools(), dest_pools + kNumResourceKinds);
  const cluster::Cluster& adopted =
      dest.fleet.ClusterByName(victim + "@src");
  EXPECT_EQ(adopted.jobs().size(), moved_jobs);
  EXPECT_EQ(adopted.Capacity(ResourceKind::kCpu), moved_capacity);
  // The market extended its per-pool state: fixed prices cover the new
  // pools and the adopted jobs' teams are charged quota there.
  EXPECT_EQ(dest_market.fixed_prices().size(), dest.fleet.NumPools());
  const cluster::Job* job = adopted.FindJob(adopted.jobs().front().job.id);
  ASSERT_NE(job, nullptr);
  const auto adopted_pool = dest.fleet.registry().Find(
      PoolKey{victim + "@src", ResourceKind::kCpu});
  ASSERT_TRUE(adopted_pool.has_value());
  EXPECT_GT(dest_market.quota().UsageOf(job->team, *adopted_pool), 0.0);

  // Both markets keep auctioning without tripping any invariant (the
  // destination's agents learned beliefs for the new pools).
  EXPECT_NO_THROW(source_market.RunAuction());
  EXPECT_NO_THROW(dest_market.RunAuction());
  EXPECT_NO_THROW(source_market.RunAuction());
}

TEST(MarketMigrationTest, CannotExtractLastClusterAndQuotaSurvives) {
  agents::WorkloadConfig workload = SmallWorkload();
  workload.num_clusters = 2;
  agents::World world = GenerateWorld(workload);
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          FastMarket());
  market.ExtractCluster(world.fleet.ClusterNames().front());

  // The rejected extraction must not have refunded any quota first: a
  // caller recovering from the failure keeps a consistent table.
  const std::string last = world.fleet.ClusterNames().front();
  const cluster::Cluster& cl = world.fleet.ClusterByName(last);
  ASSERT_FALSE(cl.jobs().empty());
  const cluster::Job* job = cl.FindJob(cl.jobs().front().job.id);
  ASSERT_NE(job, nullptr);
  const auto pool =
      world.fleet.registry().Find(PoolKey{last, ResourceKind::kCpu});
  ASSERT_TRUE(pool.has_value());
  const double usage_before = market.quota().UsageOf(job->team, *pool);
  ASSERT_GT(usage_before, 0.0);

  EXPECT_THROW(market.ExtractCluster(last), CheckFailure);
  EXPECT_EQ(market.quota().UsageOf(job->team, *pool), usage_before);
}

TEST(FederationEconomyTest, RebalancingMigratesAndIsDeterministic) {
  const auto run = [] {
    FederationConfig config;
    config.seed = 20090425;
    config.economy.treasury = true;
    config.economy.rebalance.enabled = true;
    config.economy.rebalance.spread_threshold = 0.20;
    config.economy.rebalance.consecutive_epochs = 2;
    FederatedExchange fed(HotCoolShards(), config);
    std::vector<ClusterMigration> migrations;
    std::vector<std::size_t> cluster_counts;
    for (int e = 0; e < 4; ++e) {
      const FederationReport report = fed.RunEpoch();
      for (const ClusterMigration& m : report.migrations) {
        migrations.push_back(m);
      }
    }
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      cluster_counts.push_back(fed.ShardWorld(k).fleet.NumClusters());
    }
    return std::make_pair(migrations, cluster_counts);
  };

  const auto [migrations_a, counts_a] = run();
  const auto [migrations_b, counts_b] = run();

  // The hot/cool gap must actually trigger (K = 2 ⇒ by epoch 2).
  ASSERT_FALSE(migrations_a.empty());
  // Capacity flows cool → hot, whole clusters at a time, conserved.
  std::size_t total = 0;
  for (const std::size_t count : counts_a) total += count;
  EXPECT_EQ(total, 2u * 4u);  // Two shards × four generated clusters.
  for (const ClusterMigration& m : migrations_a) {
    EXPECT_NE(m.from_shard, m.to_shard);
    EXPECT_GT(m.to_util, m.from_util);
  }
  // Determinism: identical runs migrate identical clusters.
  ASSERT_EQ(migrations_a.size(), migrations_b.size());
  for (std::size_t i = 0; i < migrations_a.size(); ++i) {
    EXPECT_EQ(migrations_a[i].cluster, migrations_b[i].cluster);
    EXPECT_EQ(migrations_a[i].adopted_name, migrations_b[i].adopted_name);
    EXPECT_EQ(migrations_a[i].from_shard, migrations_b[i].from_shard);
    EXPECT_EQ(migrations_a[i].to_shard, migrations_b[i].to_shard);
  }
  EXPECT_EQ(counts_a, counts_b);
}

TEST(FleetRebalancerTest, TieRankIsSeedStable) {
  const std::uint64_t a = FleetRebalancer::TieRank(1, 0, "r01");
  EXPECT_EQ(a, FleetRebalancer::TieRank(1, 0, "r01"));
  EXPECT_NE(a, FleetRebalancer::TieRank(2, 0, "r01"));
  EXPECT_NE(a, FleetRebalancer::TieRank(1, 1, "r01"));
  EXPECT_NE(a, FleetRebalancer::TieRank(1, 0, "r02"));
}

// ------------------------------------------------------------ arbitrage --

TEST(FederationEconomyTest, ArbitrageNarrowsClearingSpread) {
  const auto run = [](bool with_arbitrage) {
    FederationConfig config;
    config.seed = 20090425;
    if (with_arbitrage) {
      config.economy.treasury = true;
      config.economy.arbitrage.enabled = true;
      config.economy.arbitrage.margin = Money::FromDollars(1000000);
      config.economy.arbitrage.min_spread = 0.05;
      config.economy.arbitrage.min_margin = 0.05;
      config.economy.arbitrage.buy_fraction = 0.25;
    }
    FederatedExchange fed(HotCoolShards(), config);
    std::vector<double> spreads;
    for (int e = 0; e < 5; ++e) {
      spreads.push_back(fed.RunEpoch().clearing_spread);
    }
    return spreads;
  };
  const std::vector<double> baseline = run(false);
  const std::vector<double> with_arb = run(true);
  ASSERT_EQ(baseline.size(), with_arb.size());
  // Hot vs cool shards must open with a real price gap, and arbitrage
  // must end tighter than both its own start and the no-arbitrage run.
  EXPECT_GT(baseline.front(), 0.10);
  EXPECT_LT(with_arb.back(), with_arb.front());
  EXPECT_LT(with_arb.back(), baseline.back());
}

TEST(ArbitrageAgentTest, MigrationRehomesWarehouseEntries) {
  ArbitrageConfig config;
  config.enabled = true;
  ArbitrageAgent agent(config);
  // Shard 0 warehouses two pools; only pool 3's cluster migrates.
  agent.SeedHoldingsForTest(0, /*pool=*/3, /*units=*/100.0, /*basis=*/2.0);
  agent.SeedHoldingsForTest(0, /*pool=*/5, /*units=*/40.0, /*basis=*/1.0);
  // The receiving shard already holds some of the adopted pool: blended.
  agent.SeedHoldingsForTest(1, /*pool=*/7, /*units=*/100.0, /*basis=*/4.0);

  agent.OnClusterMigrated(/*from_shard=*/0, /*to_shard=*/1,
                          {{PoolId{3}, PoolId{7}}});
  // Pool 3's entry left the donor; pool 5's (different cluster) stayed.
  EXPECT_DOUBLE_EQ(agent.HoldingsUnits(0), 40.0);
  EXPECT_DOUBLE_EQ(agent.HoldingsUnits(1), 200.0);
  EXPECT_DOUBLE_EQ(agent.TotalHoldingsUnits(), 240.0);

  // Re-homing a pool with no warehouse entry is a no-op, and unknown
  // shards are tolerated (the agent may never have traded there).
  agent.OnClusterMigrated(0, 1, {{PoolId{9}, PoolId{11}}});
  agent.OnClusterMigrated(5, 1, {{PoolId{1}, PoolId{2}}});
  EXPECT_DOUBLE_EQ(agent.TotalHoldingsUnits(), 240.0);
}

TEST(ArbitrageAgentTest, MarkToMarketValuesAnUnderwaterWarehouse) {
  // Two fabricated shards with a clean 2x price spread: the agent buys in
  // the cheap shard, and a warehouse seeded deep under water marks at a
  // large unrealized loss.
  agents::World w0 = GenerateWorld(SmallWorkload());
  agents::World w1 = GenerateWorld(SmallWorkload());
  const std::vector<const cluster::Fleet*> fleets{&w0.fleet, &w1.fleet};
  const auto make_view = [](const agents::World& w, const char* name) {
    ShardView view;
    view.name = name;
    view.registry = &w.fleet.registry();
    view.reserve_prices.assign(w.fleet.NumPools(), 1.0);
    view.fixed_prices.assign(w.fleet.NumPools(), 1.0);
    view.free_capacity.assign(w.fleet.NumPools(), 100.0);
    return view;
  };
  const std::vector<ShardView> views{make_view(w0, "s0"),
                                     make_view(w1, "s1")};
  FederationReport prev;
  prev.shards.resize(2);
  prev.shards[0].report.settled_prices.assign(w0.fleet.NumPools(), 1.0);
  prev.shards[1].report.settled_prices.assign(w1.fleet.NumPools(), 2.0);

  ArbitrageConfig config;
  config.enabled = true;
  config.margin = Money::FromDollars(1000);
  config.min_spread = 0.05;
  ArbitrageAgent agent(config);

  const std::vector<ArbitragePlan> plans =
      agent.PlanEpoch(&prev, views, fleets, 1);
  EXPECT_DOUBLE_EQ(agent.MarkToMarket(), 0.0);  // Nothing warehoused yet.
  bool any_buy = false;
  for (const ArbitragePlan& plan : plans) any_buy |= plan.is_buy;
  EXPECT_TRUE(any_buy) << "a 2x spread must attract buys";

  // A warehouse bought at basis 50 now marking at ~1: unrealized ~−490.
  agent.SeedHoldingsForTest(0, /*pool=*/0, /*units=*/10.0, /*basis=*/50.0);
  agent.PlanEpoch(&prev, views, fleets, 2);
  EXPECT_LT(agent.MarkToMarket(), -400.0);
}

TEST(ArbitrageAgentTest, SitsOutWithoutAPriceSignal) {
  ArbitrageConfig config;
  config.enabled = true;
  ArbitrageAgent agent(config);
  const std::vector<ArbitragePlan> plans =
      agent.PlanEpoch(nullptr, {}, {}, 0);
  EXPECT_TRUE(plans.empty());
  EXPECT_EQ(agent.TotalHoldingsUnits(), 0.0);
}

// --------------------------------------------------- pool-space growth --

TEST(PriceLearnerTest, ExtendBeliefsKeepsOldAndSeedsNew) {
  agents::PriceLearner learner({1.0, 2.0}, 0.5, 0.0, 1.0);
  learner.Observe(std::vector<double>{3.0, 4.0});
  const double belief0 = learner.Belief(0);
  learner.ExtendBeliefs(std::vector<double>{9.0, 9.0, 7.5});
  EXPECT_EQ(learner.NumPools(), 3u);
  EXPECT_EQ(learner.Belief(0), belief0);  // Existing beliefs untouched.
  EXPECT_EQ(learner.Belief(2), 7.5);      // New pool at the default.
  // Observing the enlarged price vector now works.
  learner.Observe(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_EQ(learner.NumPools(), 3u);
}

// ------------------------------------------------------- host metadata --

TEST(BenchMetaTest, HostMetadataIsMachineChecked) {
  const HostMetadata meta = CollectHostMetadata();
  // 0 cores means "unknown" and must not claim single-vCPU.
  EXPECT_EQ(meta.single_vcpu, meta.hardware_concurrency == 1);
  EXPECT_FALSE(meta.git_sha.empty());
  EXPECT_FALSE(meta.timestamp_utc.empty());
  const std::string json = HostMetadataJson(meta);
  EXPECT_NE(json.find("\"hardware_concurrency\""), std::string::npos);
  EXPECT_NE(json.find("\"single_vcpu\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp_utc\""), std::string::npos);
  // The caveat is derived from the measured core count, never
  // hand-written: present iff the host really is single-vCPU.
  EXPECT_EQ(json.find("\"caveat\"") != std::string::npos,
            meta.single_vcpu);
}

TEST(BenchMetaTest, RefusesOnlyGitTrackedOutputPaths) {
  const std::string root = PM_REPO_ROOT;
  if (!std::filesystem::exists(root + "/.git")) {
    GTEST_SKIP() << "source tree is not a git checkout";
  }
  // A committed baseline is refused; a fresh temporary path is not.
  EXPECT_TRUE(RefuseTrackedOutput(root + "/BENCH_megascale.json"));
  EXPECT_FALSE(RefuseTrackedOutput(root + "/BENCH_no_such_bench.json"));
  EXPECT_FALSE(RefuseTrackedOutput(testing::TempDir() +
                                   "bench_meta_fresh_output.json"));
}

}  // namespace
}  // namespace pm::federation
