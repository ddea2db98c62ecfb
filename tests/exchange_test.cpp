// Tests for pm::exchange: ledger, accounts, endowment, reports and the
// Market orchestrator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "agents/workload_gen.h"
#include "common/check.h"
#include "exchange/market.h"
#include "exchange/summary.h"
#include "net/serializer.h"

namespace pm::exchange {
namespace {

// ------------------------------------------------------------------ ledger --

TEST(LedgerTest, TransfersMoveMoney) {
  Ledger ledger;
  const AccountId a = ledger.CreateAccount("a", Money::FromDollars(100));
  const AccountId b = ledger.CreateAccount("b");
  EXPECT_EQ(ledger.Transfer(a, b, Money::FromDollars(30), "test"), "");
  EXPECT_EQ(ledger.Balance(a), Money::FromDollars(70));
  EXPECT_EQ(ledger.Balance(b), Money::FromDollars(30));
  ASSERT_EQ(ledger.Journal().size(), 1u);
  EXPECT_EQ(ledger.Journal()[0].memo, "test");
}

TEST(LedgerTest, RejectsOverdraftOnNormalAccounts) {
  Ledger ledger;
  const AccountId a = ledger.CreateAccount("a", Money::FromDollars(10));
  const AccountId b = ledger.CreateAccount("b");
  const std::string status =
      ledger.Transfer(a, b, Money::FromDollars(20), "too much");
  EXPECT_NE(status, "");
  EXPECT_EQ(ledger.Balance(a), Money::FromDollars(10));  // Unchanged.
  EXPECT_TRUE(ledger.Journal().empty());
}

TEST(LedgerTest, NegativeAccountsMayOverdraw) {
  Ledger ledger;
  const AccountId treasury =
      ledger.CreateAccount("treasury", Money(), /*allow_negative=*/true);
  const AccountId t = ledger.CreateAccount("team");
  EXPECT_EQ(ledger.Transfer(treasury, t, Money::FromDollars(500), "mint"),
            "");
  EXPECT_EQ(ledger.Balance(treasury), Money::FromDollars(-500));
}

TEST(LedgerTest, ConservationInvariant) {
  Ledger ledger;
  const AccountId a =
      ledger.CreateAccount("a", Money::FromDollars(100), true);
  const AccountId b = ledger.CreateAccount("b", Money::FromDollars(50));
  const AccountId c = ledger.CreateAccount("c");
  const Money total_before = ledger.TotalBalance();
  ledger.Transfer(a, b, Money::FromDollars(77), "x");
  ledger.Transfer(b, c, Money::FromDollars(17), "y");
  ledger.Transfer(a, c, Money::FromDollars(200), "z");
  EXPECT_EQ(ledger.TotalBalance(), total_before);
}

TEST(LedgerTest, RejectsNegativeAmountAndSelfTransfer) {
  Ledger ledger;
  const AccountId a = ledger.CreateAccount("a", Money::FromDollars(10));
  const AccountId b = ledger.CreateAccount("b");
  EXPECT_NE(ledger.Transfer(a, b, Money::FromDollars(-5), "neg"), "");
  EXPECT_NE(ledger.Transfer(a, a, Money::FromDollars(5), "self"), "");
}

TEST(LedgerTest, UnknownAccountThrows) {
  Ledger ledger;
  const AccountId a = ledger.CreateAccount("a");
  EXPECT_THROW(ledger.Transfer(a, 99, Money::FromDollars(1), "x"),
               pm::CheckFailure);
  EXPECT_THROW(ledger.Balance(99), pm::CheckFailure);
}

TEST(LedgerTest, RenderAccountsListsBalances) {
  Ledger ledger;
  ledger.CreateAccount("search-team", Money::FromDollars(12));
  const std::string out = ledger.RenderAccounts();
  EXPECT_NE(out.find("search-team"), std::string::npos);
  EXPECT_NE(out.find("$12.000000"), std::string::npos);
}

// ---------------------------------------------------------------- accounts --

TEST(MarketAccountsTest, EndowAndCharge) {
  Ledger ledger;
  MarketAccounts accounts(&ledger);
  accounts.Endow("team-a", Money::FromDollars(100), "seed");
  EXPECT_EQ(accounts.BudgetOf("team-a"), Money::FromDollars(100));
  EXPECT_EQ(accounts.ChargeTeam("team-a", Money::FromDollars(40), "buy"),
            "");
  EXPECT_EQ(accounts.BudgetOf("team-a"), Money::FromDollars(60));
  EXPECT_EQ(ledger.Balance(accounts.operator_account()),
            Money::FromDollars(-60));
}

TEST(MarketAccountsTest, UnknownTeamHasZeroBudget) {
  Ledger ledger;
  MarketAccounts accounts(&ledger);
  EXPECT_EQ(accounts.BudgetOf("ghost"), Money());
}

TEST(MarketAccountsTest, PayTeamCredits) {
  Ledger ledger;
  MarketAccounts accounts(&ledger);
  EXPECT_EQ(accounts.PayTeam("seller", Money::FromDollars(25), "sale"),
            "");
  EXPECT_EQ(accounts.BudgetOf("seller"), Money::FromDollars(25));
}

TEST(MarketAccountsTest, ChargeBeyondBudgetFails) {
  Ledger ledger;
  MarketAccounts accounts(&ledger);
  accounts.Endow("t", Money::FromDollars(10), "seed");
  EXPECT_NE(accounts.ChargeTeam("t", Money::FromDollars(11), "x"), "");
}

// --------------------------------------------------------------- endowment --

TEST(EndowmentTest, ProportionalToFootprintValue) {
  PoolRegistry reg;
  for (ResourceKind kind : kAllResourceKinds) reg.Intern("c", kind);
  std::vector<double> prices = {10.0, 1.0, 1.0};

  agents::TeamProfile small;
  small.name = "small";
  small.home_cluster = "c";
  small.footprint = {10.0, 0.0, 0.0};  // Value 100.
  agents::TeamProfile big = small;
  big.name = "big";
  big.footprint = {100.0, 0.0, 0.0};  // Value 1000.

  std::vector<agents::TeamAgent> agents;
  agents.emplace_back(small, prices, 1);
  agents.emplace_back(big, prices, 2);

  const std::vector<Money> out =
      ComputeEndowments(reg, agents, prices, EndowmentPolicy{});
  EXPECT_EQ(out[0], Money::FromDollars(600));  // 6 × footprint value.
  EXPECT_EQ(out[1], Money::FromDollars(6000));
}

TEST(EndowmentTest, MinimumFloorApplies) {
  PoolRegistry reg;
  for (ResourceKind kind : kAllResourceKinds) reg.Intern("c", kind);
  std::vector<double> prices = {1.0, 1.0, 1.0};
  agents::TeamProfile tiny;
  tiny.name = "tiny";
  tiny.home_cluster = "c";
  tiny.footprint = {0.1, 0.0, 0.0};
  std::vector<agents::TeamAgent> agents;
  agents.emplace_back(tiny, prices, 1);
  EndowmentPolicy policy;
  policy.minimum = Money::FromDollars(100);
  EXPECT_EQ(ComputeEndowments(reg, agents, prices, policy)[0],
            Money::FromDollars(100));
}

// ------------------------------------------------------------------ report --

TEST(ReportTest, PriceRatiosDivideByFixed) {
  AuctionReport report;
  report.fixed_prices = {10.0, 2.0, 0.0};
  report.settled_prices = {15.0, 1.0, 3.0};
  const std::vector<double> ratios = PriceRatios(report);
  EXPECT_DOUBLE_EQ(ratios[0], 1.5);
  EXPECT_DOUBLE_EQ(ratios[1], 0.5);
  EXPECT_TRUE(std::isnan(ratios[2]));
}

TEST(ReportTest, TradePercentilesFilterKindAndSide) {
  AuctionReport report;
  report.trades = {
      TradeSample{ResourceKind::kCpu, true, 20.0, 1.0, "a"},
      TradeSample{ResourceKind::kCpu, false, 80.0, 1.0, "b"},
      TradeSample{ResourceKind::kRam, true, 50.0, 1.0, "c"},
      TradeSample{ResourceKind::kCpu, true, 30.0, 1.0, "d"},
  };
  const auto cpu_bids =
      TradePercentiles(report, ResourceKind::kCpu, true);
  EXPECT_EQ(cpu_bids, (std::vector<double>{20.0, 30.0}));
  EXPECT_TRUE(TradePercentiles(report, ResourceKind::kDisk, true).empty());
}

TEST(ReportTest, UtilizationSpreadInPercentagePoints) {
  EXPECT_DOUBLE_EQ(UtilizationSpread({0.2, 0.8}), 30.0);
  EXPECT_DOUBLE_EQ(UtilizationSpread({0.5, 0.5}), 0.0);
}

// ------------------------------------------------------------------ market --

agents::WorkloadConfig SmallWorldConfig() {
  agents::WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 24;
  config.min_machines_per_cluster = 15;
  config.max_machines_per_cluster = 30;
  config.seed = 31;
  return config;
}

MarketConfig FastMarketConfig() {
  MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.max_rounds = 30000;
  return config;
}

TEST(MarketTest, RunAuctionProducesCoherentReport) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const AuctionReport report = market.RunAuction();
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.num_bids, 0u);
  EXPECT_GE(report.num_bids, report.num_winners);
  EXPECT_EQ(report.settled_prices.size(), world.fleet.NumPools());
  EXPECT_EQ(report.reserve_prices.size(), world.fleet.NumPools());
  // Settled prices never below reserve.
  for (std::size_t r = 0; r < report.settled_prices.size(); ++r) {
    EXPECT_GE(report.settled_prices[r], report.reserve_prices[r] - 1e-9);
  }
  EXPECT_EQ(market.AuctionCount(), 1);
}

TEST(MarketTest, EndowmentsHappenOnceAndBudgetsAreSpent) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  market.RunAuction();
  Money total_team_budget;
  for (const auto& agent : world.agents) {
    const Money b = market.TeamBudget(agent.profile().name);
    EXPECT_GE(b, Money()) << agent.profile().name;
    total_team_budget += b;
  }
  // Ledger conservation: treasury + teams == 0 overall.
  EXPECT_EQ(market.ledger().TotalBalance(), Money());
  const std::size_t journal_after_one =
      market.ledger().Journal().size();
  market.RunAuction();
  // No second endowment: no new journal entry starts with "initial".
  for (std::size_t i = journal_after_one;
       i < market.ledger().Journal().size(); ++i) {
    EXPECT_NE(market.ledger().Journal()[i].memo.rfind("initial", 0), 0u);
  }
}

TEST(MarketTest, PhysicalStateChangesWithTrades) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::size_t jobs_before = world.fleet.AllJobs().size();
  const AuctionReport report = market.RunAuction();
  if (report.num_winners > 0) {
    EXPECT_GT(report.jobs_added + report.jobs_removed +
                  report.placement_failures,
              0u);
  }
  // The fleet stays structurally sound: utilizations within [0, 1].
  for (double u : world.fleet.UtilizationVector()) {
    EXPECT_GE(u, -1e-9);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  (void)jobs_before;
}

TEST(MarketTest, ReportsTradeSamplesForSettledBundles) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const AuctionReport report = market.RunAuction();
  if (report.num_winners > 0) {
    EXPECT_FALSE(report.trades.empty());
    for (const TradeSample& t : report.trades) {
      EXPECT_GE(t.util_percentile, 0.0);
      EXPECT_LE(t.util_percentile, 100.0);
      EXPECT_GT(t.qty, 0.0);
      EXPECT_FALSE(t.team.empty());
    }
  }
}

TEST(MarketTest, PreliminaryPricesDoNotBind) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  PoolRegistry& reg_hack =
      const_cast<PoolRegistry&>(world.fleet.registry());
  (void)reg_hack;
  std::vector<bid::Bid> bids;
  bid::Bid b;
  b.name = "probe";
  b.bundles = {bid::Bundle({bid::BundleItem{0, 1.0}})};
  b.limit = 1e6;
  bids.push_back(std::move(b));
  const std::vector<double> prelim =
      market.ComputePreliminaryPrices(std::move(bids));
  EXPECT_EQ(prelim.size(), world.fleet.NumPools());
  EXPECT_EQ(market.AuctionCount(), 0);       // Nothing bound.
  EXPECT_TRUE(market.ledger().Journal().empty());
}

TEST(MarketTest, AwardRecordsMatchWinners) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const AuctionReport report = market.RunAuction();
  EXPECT_EQ(report.awards.size(), report.num_winners);
  double total_payment = 0.0;
  for (const AwardRecord& award : report.awards) {
    EXPECT_FALSE(award.team.empty());
    EXPECT_FALSE(award.bid_name.empty());
    EXPECT_GE(award.bundle_index, 0);
    // Bid names carry the originating team as a prefix.
    EXPECT_EQ(award.bid_name.rfind(award.team, 0), 0u)
        << award.bid_name << " vs " << award.team;
    total_payment += award.payment;
  }
  EXPECT_NEAR(total_payment, report.operator_revenue, 1e-6);
}

TEST(MarketTest, MoveRecordsReferenceRealClusters) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  for (int i = 0; i < 3; ++i) {
    const AuctionReport report = market.RunAuction();
    for (const MoveRecord& move : report.moves) {
      EXPECT_FALSE(move.team.empty());
      if (!move.from_cluster.empty()) {
        EXPECT_TRUE(world.fleet.HasCluster(move.from_cluster));
      }
      if (!move.to_cluster.empty()) {
        EXPECT_TRUE(world.fleet.HasCluster(move.to_cluster));
      }
      EXPECT_FALSE(move.from_cluster.empty() &&
                   move.to_cluster.empty());
    }
  }
}

TEST(MarketTest, HistoryAccumulates) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  market.RunAuction();
  market.RunAuction();
  market.RunAuction();
  EXPECT_EQ(market.History().size(), 3u);
  EXPECT_EQ(market.History()[2].auction_index, 2);
}

TEST(MarketTest, SupplyFractionValidated) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.supply_fraction = 0.0;
  EXPECT_THROW(Market(&world.fleet, &world.agents, world.fixed_prices,
                      config),
               pm::CheckFailure);
}

TEST(MarketTest, SnapshotIntoStaleBufferMatchesFreshSnapshot) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  market.RunAuction();
  const std::vector<std::uint8_t> fresh = market.Snapshot();
  // A longer buffer full of stale bytes: the frame overwrites it in
  // place, in the storage it already has.
  std::vector<std::uint8_t> stale(2 * fresh.size(), 0xAB);
  const std::uint8_t* storage = stale.data();
  const std::vector<std::uint8_t> reused = market.Snapshot(std::move(stale));
  EXPECT_EQ(reused, fresh);
  EXPECT_EQ(reused.data(), storage);
}

/// Appends the FrameChecksum of `payload`, as Serializer does on finish.
std::vector<std::uint8_t> Reseal(std::vector<std::uint8_t> payload) {
  const std::uint64_t checksum =
      net::FrameChecksum(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  }
  return payload;
}

void PutU32(std::vector<std::uint8_t>& bytes, std::size_t offset,
            std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// `frame` with its payload's u32 at `offset` overwritten by `value` and
/// the checksum trailer recomputed, so only the tampered field can fail.
std::vector<std::uint8_t> ResealWithU32(
    const std::vector<std::uint8_t>& frame, std::size_t offset,
    std::uint32_t value) {
  std::vector<std::uint8_t> out(frame.begin(), frame.end() - 8);
  PutU32(out, offset, value);
  return Reseal(std::move(out));
}

std::uint32_t U32At(const std::vector<std::uint8_t>& frame,
                    std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(frame[offset + i]) << (8 * i);
  }
  return v;
}

TEST(MarketTest, RestoreRejectsPlacementOtherThanBestFit) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::vector<std::uint8_t> frame = market.Snapshot();
  // The fleet section's placement byte follows the version, the
  // fixed-price vector (u32 count, then 8 bytes each), `endowed`, the
  // next job id, 4 RNG words and the unit-cost shape.
  const std::uint32_t num_prices = U32At(frame, 4);
  ASSERT_EQ(num_prices, world.fleet.NumPools());
  const std::size_t placement = 4 + 4 + 8 * num_prices + 1 + 8 + 4 * 8 + 3 * 8;
  ASSERT_EQ(frame[placement], 1);  // Best fit.
  market.Restore(frame);
  for (const std::uint8_t bad : {0, 2, 7}) {
    // Re-seal the tampered payload so only the placement check can fail.
    std::vector<std::uint8_t> tampered(frame.begin(), frame.end() - 8);
    tampered[placement] = bad;
    try {
      market.Restore(Reseal(std::move(tampered)));
      FAIL() << "placement byte " << int{bad} << " restored";
    } catch (const pm::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("placement byte " +
                                           std::to_string(int{bad})),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MarketTest, RestoreRejectsPlacementNoAddJobCouldMake) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::vector<std::uint8_t> frame = market.Snapshot();
  // Find the first cluster's first placed job by its record header (id,
  // team, shape, task count, machine count); one i32 per machine and the
  // failed-task count follow it.
  // Copies: each Restore below replaces the fleet's clusters.
  const cluster::Cluster cl = world.fleet.clusters().front();
  ASSERT_FALSE(cl.jobs().empty());
  const cluster::PlacedJob first = cl.jobs().front();
  net::Serializer header;
  header.WriteU64(first.job.id);
  header.WriteString(first.job.team);
  header.WriteDouble(first.job.shape.cpu);
  header.WriteDouble(first.job.shape.ram_gb);
  header.WriteDouble(first.job.shape.disk_tb);
  header.WriteI32(first.job.tasks);
  header.WriteU32(static_cast<std::uint32_t>(cl.NumMachines()));
  const auto found = std::search(frame.begin(), frame.end(),
                                 header.bytes().begin(), header.bytes().end());
  ASSERT_NE(found, frame.end());
  const std::size_t counts =
      static_cast<std::size_t>(found - frame.begin()) + header.bytes().size();
  const std::size_t machines = cl.NumMachines();
  const std::size_t failed = counts + 4 * machines;
  const std::vector<int>& placed = first.placement.tasks_placed;
  const auto on = std::find_if(placed.begin(), placed.end(),
                               [](int n) { return n > 0; });
  const auto off = std::find(placed.begin(), placed.end(), 0);
  ASSERT_NE(on, placed.end());
  ASSERT_NE(off, placed.end());
  const std::size_t used_at = counts + 4 * (on - placed.begin());
  const std::size_t unused_at = counts + 4 * (off - placed.begin());

  const std::vector<std::uint8_t> payload(frame.begin(), frame.end() - 8);
  market.Restore(Reseal(payload));
  const std::vector<std::pair<
      const char*, std::function<void(std::vector<std::uint8_t>&)>>>
      corruptions = {
          {"one machine short",
           [&](std::vector<std::uint8_t>& p) {
             p.erase(p.begin() + static_cast<std::ptrdiff_t>(failed - 4),
                     p.begin() + static_cast<std::ptrdiff_t>(failed));
             PutU32(p, counts - 4, static_cast<std::uint32_t>(machines - 1));
           }},
          {"a failed task",
           [&](std::vector<std::uint8_t>& p) { PutU32(p, failed, 1); }},
          {"a negative count, same sum",
           [&](std::vector<std::uint8_t>& p) {
             PutU32(p, used_at, static_cast<std::uint32_t>(*on + 1));
             PutU32(p, unused_at, static_cast<std::uint32_t>(-1));
           }},
          {"one task too many",
           [&](std::vector<std::uint8_t>& p) { PutU32(p, unused_at, 1); }},
      };
  const std::string names_job =
      "job " + std::to_string(first.job.id) + " in restore of " + cl.name();
  for (const auto& [what, corrupt] : corruptions) {
    std::vector<std::uint8_t> tampered = payload;
    corrupt(tampered);
    try {
      market.Restore(Reseal(std::move(tampered)));
      ADD_FAILURE() << what << " restored";
    } catch (const pm::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(names_job), std::string::npos)
          << what << ": " << e.what();
    }
  }
}

TEST(MarketTest, TradesOnExtractedPoolsRecordNoSample) {
  // A cluster migrates away; its pools stay interned, and a quota-only
  // trade on one of them still settles but has no live utilization
  // percentile, so it adds no Figure 7 sample.
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::string gone = world.fleet.ClusterNames().back();
  market.ExtractCluster(gone);
  const PoolId dead =
      *world.fleet.registry().Find(PoolKey{gone, ResourceKind::kCpu});
  market.EndowTeam("ext-buyer", Money::FromDollars(1e6), "test");
  bid::Bid sell;
  sell.name = "ext-seller/offer";
  sell.bundles = {bid::Bundle({bid::BundleItem{dead, -10.0}})};
  sell.limit = -1.0;
  bid::Bid buy;
  buy.name = "ext-buyer/buy";
  buy.bundles = {bid::Bundle({bid::BundleItem{dead, 10.0}})};
  buy.limit = 1e5;
  market.SubmitExternalBid({"ext-seller", sell});
  market.SubmitExternalBid({"ext-buyer", buy});
  const AuctionReport report = market.RunAuction();
  int external_awards = 0;
  for (const AwardRecord& award : report.awards) {
    external_awards += award.team.rfind("ext-", 0) == 0;
  }
  EXPECT_EQ(external_awards, 2);
  for (const TradeSample& t : report.trades) {
    EXPECT_EQ(t.team.rfind("ext-", 0), std::string::npos) << t.team;
    EXPECT_GE(t.util_percentile, 0.0);
    EXPECT_LE(t.util_percentile, 100.0);
  }
}

TEST(MarketTest, RestoreRefusesCountsBeyondTheFrame) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::vector<std::uint8_t> frame = market.Snapshot();
  // Layout up to the first cluster (see RestoreRejectsPlacementOther-
  // ThanBestFit): the pool count follows the placement byte, each pool
  // key is a string and a kind byte, then the cluster count, the first
  // cluster's name and its machine count.
  const std::uint32_t num_prices = U32At(frame, 4);
  const std::size_t pool_count =
      4 + 4 + 8 * num_prices + 1 + 8 + 4 * 8 + 3 * 8 + 1;
  ASSERT_EQ(U32At(frame, pool_count), world.fleet.NumPools());
  std::size_t pos = pool_count + 4;
  for (std::uint32_t r = 0; r < U32At(frame, pool_count); ++r) {
    pos += 4 + U32At(frame, pos) + 1;
  }
  const std::size_t cluster_count = pos;
  ASSERT_EQ(U32At(frame, cluster_count), world.fleet.NumClusters());
  const std::size_t machine_count =
      cluster_count + 4 + 4 + U32At(frame, cluster_count + 4);
  ASSERT_EQ(U32At(frame, machine_count),
            world.fleet.ClusterByName(world.fleet.ClusterNames()[0])
                .NumMachines());
  for (const std::size_t offset : {pool_count, cluster_count, machine_count}) {
    // A count claiming 2^32 - 1 items fails as truncation, before any
    // allocation sized by it.
    try {
      market.Restore(ResealWithU32(frame, offset, 0xFFFFFFFFu));
      FAIL() << "count at " << offset << " restored";
    } catch (const pm::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("market snapshot truncated"),
                std::string::npos)
          << e.what();
    }
  }
  market.Restore(frame);
  EXPECT_EQ(market.Snapshot(), frame);
}

/// Each resident team's home as the profile refresh picked it from the
/// fleet-wide job list: cpu summed per (team, cluster) into string-keyed
/// unordered_maps, then the first cluster in iteration order whose cpu
/// beats every one before it. Teams with no positive cpu are absent.
/// `order_matters` counts teams whose pick differs from the tied cluster
/// seen first in job order.
std::unordered_map<std::string, std::string> ReferenceHomes(
    const cluster::Fleet& fleet, int* order_matters) {
  std::unordered_map<std::string, std::unordered_map<std::string, double>>
      cpu_by_cluster;
  std::unordered_map<std::string, std::vector<std::string>> first_touch;
  for (const cluster::JobLocation& loc : fleet.AllJobs()) {
    const cluster::Job* job =
        fleet.ClusterByName(loc.cluster).FindJob(loc.job);
    auto& clusters = cpu_by_cluster[job->team];
    if (clusters.count(loc.cluster) == 0) {
      first_touch[job->team].push_back(loc.cluster);
    }
    clusters[loc.cluster] += job->TotalDemand().cpu;
  }
  std::unordered_map<std::string, std::string> homes;
  for (const auto& [team, clusters] : cpu_by_cluster) {
    double best_cpu = 0.0;
    for (const auto& [cluster_name, cpu] : clusters) {
      if (cpu > best_cpu) {
        best_cpu = cpu;
        homes[team] = cluster_name;
      }
    }
    if (best_cpu <= 0.0) continue;
    for (const std::string& name : first_touch[team]) {
      if (clusters.at(name) != best_cpu) continue;
      if (name != homes[team]) ++*order_matters;
      break;
    }
  }
  return homes;
}

TEST(MarketTest, HomePickOnCpuTiesMatchesReference) {
  // Eight clusters; each team runs identical jobs in two to five of them,
  // so its cpu ties across those clusters, and every third team adds one
  // larger job that makes its maximum unique.
  std::vector<cluster::Cluster> clusters;
  for (int c = 0; c < 8; ++c) {
    clusters.push_back(cluster::Cluster::Homogeneous(
        "k" + std::to_string(c), 24, cluster::TaskShape{16.0, 64.0, 8.0}));
  }
  cluster::Fleet fleet(std::move(clusters),
                       cluster::TaskShape{10.0, 1.5, 0.8});
  const std::vector<double> fixed_prices = fleet.CostVector();
  const agents::StrategyKind kinds[] = {
      agents::StrategyKind::kTruthfulGrowth,
      agents::StrategyKind::kOpportunistMover,
      agents::StrategyKind::kLowballSeller,
      agents::StrategyKind::kPremiumSticky};
  std::vector<agents::TeamAgent> agents;
  cluster::JobId next_id = 1;
  for (int t = 0; t < 24; ++t) {
    agents::TeamProfile profile;
    profile.name = "team-" + std::to_string(t);
    const int spread = 2 + t % 4;
    for (int k = 0; k < spread; ++k) {
      cluster::Job job;
      job.id = next_id++;
      job.team = profile.name;
      job.shape = {1.0, 4.0, 0.5};
      job.tasks = 6;
      ASSERT_TRUE(fleet.AddJob("k" + std::to_string((t * 3 + k * 5) % 8),
                               job));
    }
    if (t % 3 == 0) {
      cluster::Job job;
      job.id = next_id++;
      job.team = profile.name;
      job.shape = {1.0, 4.0, 0.5};
      job.tasks = 9;
      ASSERT_TRUE(fleet.AddJob("k" + std::to_string((t + 1) % 8), job));
    }
    profile.home_cluster = "k" + std::to_string(t % 8);
    profile.footprint = {12.0, 48.0, 6.0};
    profile.relocation_cost = 5.0;
    profile.strategy = kinds[t % 4];
    agents.emplace_back(std::move(profile), fixed_prices, 100 + t);
  }
  Market market(&fleet, &agents, fixed_prices, FastMarketConfig());
  int order_matters = 0;
  for (int epoch = 0; epoch < 5; ++epoch) {
    std::vector<std::string> before;
    for (const agents::TeamAgent& agent : agents) {
      before.push_back(agent.profile().home_cluster);
    }
    market.RunAuction();
    const auto homes = ReferenceHomes(fleet, &order_matters);
    for (std::size_t a = 0; a < agents.size(); ++a) {
      const auto it = homes.find(agents[a].profile().name);
      EXPECT_EQ(agents[a].profile().home_cluster,
                it == homes.end() ? before[a] : it->second)
          << agents[a].profile().name << " after epoch " << epoch;
    }
  }
  // The ties above are real: for some teams the pick is not the tied
  // cluster first seen, so only the map's iteration order yields it.
  EXPECT_GT(order_matters, 0);
}

// ----------------------------------------------------------------- summary --

TEST(SummaryTest, PreMarketSummaryShowsReserves) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::string out = RenderMarketSummary(market);
  EXPECT_NE(out.find("MARKET SUMMARY"), std::string::npos);
  EXPECT_NE(out.find("pre-market"), std::string::npos);
  EXPECT_NE(out.find("r01"), std::string::npos);
}

TEST(SummaryTest, PostAuctionSummaryShowsSettleRate) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  market.RunAuction();
  const std::string out = RenderMarketSummary(market);
  EXPECT_NE(out.find("after auction #1"), std::string::npos);
  EXPECT_NE(out.find("settle rate"), std::string::npos);
}

TEST(SummaryTest, BidPreviewListsComponents) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  const std::string out = RenderBidPreview(
      market, "r01", cluster::TaskShape{10.0, 40.0, 5.0});
  EXPECT_NE(out.find("BID ENTRY"), std::string::npos);
  EXPECT_NE(out.find("cpu"), std::string::npos);
  EXPECT_NE(out.find("covering amount"), std::string::npos);
}

}  // namespace
}  // namespace pm::exchange
