// Tests for the outcome-aware settlement pipeline: pool-level fill
// intents on auction awards, PlacementOutcomes on every AwardRecord, the
// gated pro-rata refund for unplaced units, §V.B move pricing, and the
// external-rejection reasons the federation routing layer asserts on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "common/check.h"
#include "exchange/market.h"
#include "exchange/settlement_pipeline.h"

namespace pm::exchange {
namespace {

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

/// The cluster with the most free CPU, plus that cluster's largest
/// single-machine CPU headroom (the bin-packing bound).
struct SpaciousCluster {
  std::string name;
  double free_cpu = 0.0;
  double max_machine_free_cpu = 0.0;
};

SpaciousCluster MostSpaciousCluster(const cluster::Fleet& fleet) {
  SpaciousCluster best;
  for (const std::string& name : fleet.ClusterNames()) {
    const double free = fleet.FreeShape(name).cpu;
    if (free <= best.free_cpu) continue;
    best.name = name;
    best.free_cpu = free;
    best.max_machine_free_cpu = 0.0;
    for (const cluster::Machine& machine :
         fleet.ClusterByName(name).machines()) {
      best.max_machine_free_cpu =
          std::max(best.max_machine_free_cpu, machine.Free().cpu);
    }
  }
  return best;
}

// ------------------------------------------------- auction fill intents --

TEST(SettlementTest, AwardsCarryAggregatedPoolFillIntents) {
  // One generous buy bundle listing pool 0 twice: intents aggregate.
  bid::Bid b;
  b.name = "dup";
  b.bundles = {bid::Bundle({bid::BundleItem{0, 2.0}, bid::BundleItem{0, 1.0},
                            bid::BundleItem{1, 4.0}})};
  b.limit = 1000.0;
  std::vector<bid::Bid> bids{b};
  bid::AssignUserIds(bids);
  auction::ClockAuction auction(std::move(bids), {10.0, 10.0}, {1.0, 1.0});
  const auction::ClockAuctionResult result =
      auction.Run(auction::ClockAuctionConfig{});
  ASSERT_TRUE(result.converged);
  const auction::Settlement s = auction::Settle(auction, result);
  ASSERT_EQ(s.awards.size(), 1u);
  ASSERT_EQ(s.awards[0].intents.size(), 2u);
  EXPECT_EQ(s.awards[0].intents[0].pool, 0u);
  EXPECT_DOUBLE_EQ(s.awards[0].intents[0].qty, 3.0);
  EXPECT_EQ(s.awards[0].intents[1].pool, 1u);
  EXPECT_DOUBLE_EQ(s.awards[0].intents[1].qty, 4.0);
}

// ------------------------------------------------- outcomes on awards --

TEST(SettlementPipelineTest, EveryAwardCarriesAConsistentOutcome) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  for (int round = 0; round < 2; ++round) {
    const AuctionReport report = market.RunAuction();
    ASSERT_EQ(report.awards.size(), report.num_winners);
    double refund_total = 0.0;
    for (const AwardRecord& award : report.awards) {
      const PlacementOutcome& outcome = award.outcome;
      double awarded = 0.0;
      double placed = 0.0;
      for (const PoolFill& fill : outcome.fills) {
        EXPECT_GT(fill.awarded, 0.0);
        EXPECT_GE(fill.placed, 0.0);
        EXPECT_LE(fill.placed, fill.awarded + 1e-9);
        awarded += fill.awarded;
        placed += fill.placed;
      }
      EXPECT_NEAR(outcome.awarded_units, awarded, 1e-9);
      EXPECT_NEAR(outcome.placed_units, placed, 1e-9);
      // The refund gate is off: nothing was refunded, and the status
      // matches the fill arithmetic.
      EXPECT_EQ(outcome.refunded_units, 0.0);
      EXPECT_EQ(outcome.refund, 0.0);
      if (outcome.quota_only || outcome.awarded_units == 0.0) {
        EXPECT_EQ(outcome.status, PlacementOutcome::Status::kPlaced);
      } else if (outcome.placed_units <= 0.0) {
        EXPECT_EQ(outcome.status, PlacementOutcome::Status::kFailed);
      } else if (outcome.placed_units < outcome.awarded_units * (1 - 1e-12)) {
        EXPECT_EQ(outcome.status, PlacementOutcome::Status::kPartial);
      } else {
        EXPECT_EQ(outcome.status, PlacementOutcome::Status::kPlaced);
      }
      refund_total += outcome.refund;
    }
    EXPECT_EQ(report.refund_total, refund_total);
  }
}

// ---------------------------------------------------- refunds (gated) --

TEST(SettlementPipelineTest, PartialPlacementRefundsUnplacedProRata) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  // No task splitting: a bought delta materializes as ONE task, so a buy
  // larger than every machine's headroom is guaranteed to fail
  // bin-packing even though the pool-level supply covers it.
  config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  config.settlement.refund_unplaced = true;
  config.settlement.move_cost_weights = cluster::TaskShape{2.0, 0.5, 10.0};
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const SpaciousCluster big = MostSpaciousCluster(world.fleet);
  // Bigger than twice the largest machine headroom (the pipeline retries
  // once at half task size), comfortably inside the pool supply.
  const double qty_fail =
      std::min(0.9 * big.free_cpu, 2.5 * big.max_machine_free_cpu);
  ASSERT_GT(qty_fail, 2.0 * big.max_machine_free_cpu)
      << "fixture must exceed the bin-packing retry bound";
  // A small second part in another cluster that places trivially.
  std::string other;
  for (const std::string& name : world.fleet.ClusterNames()) {
    if (name != big.name && world.fleet.FreeShape(name).cpu > 4.0) {
      other = name;
    }
  }
  ASSERT_FALSE(other.empty());
  const PoolRegistry& registry = world.fleet.registry();
  const PoolId pool_fail =
      *registry.Find(PoolKey{big.name, ResourceKind::kCpu});
  const PoolId pool_ok =
      *registry.Find(PoolKey{other, ResourceKind::kCpu});

  market.EndowTeam("buyer", Money::FromDollars(10000000), "test");
  bid::Bid bid;
  bid.name = "fed/buyer/part";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool_fail, qty_fail},
                              bid::BundleItem{pool_ok, 2.0}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr) << "generous uncontested buy must win";

  const PlacementOutcome& outcome = award->outcome;
  EXPECT_EQ(outcome.status, PlacementOutcome::Status::kPartial);
  ASSERT_EQ(outcome.fills.size(), 2u);
  double refund_value = 0.0;
  for (const PoolFill& fill : outcome.fills) {
    if (fill.pool == pool_fail) {
      EXPECT_DOUBLE_EQ(fill.awarded, qty_fail);
      EXPECT_EQ(fill.placed, 0.0);
      refund_value += fill.awarded * report.settled_prices[fill.pool];
    } else {
      EXPECT_EQ(fill.pool, pool_ok);
      EXPECT_DOUBLE_EQ(fill.placed, fill.awarded);
    }
  }
  EXPECT_NEAR(outcome.refunded_units, qty_fail, 1e-9);
  EXPECT_DOUBLE_EQ(outcome.refund,
                   Money::FromDollarsRounded(refund_value).ToDouble());
  EXPECT_GE(report.partial_placements, 1u);
  EXPECT_GE(report.refund_total, outcome.refund);

  // The unplaced entitlement was handed back with the money; the placed
  // part keeps its.
  EXPECT_EQ(market.quota().EntitlementOf("buyer", pool_fail), 0.0);
  EXPECT_DOUBLE_EQ(market.quota().EntitlementOf("buyer", pool_ok), 2.0);
  bool journaled = false;
  for (const JournalEntry& entry : market.ledger().Journal()) {
    journaled = journaled ||
                entry.memo == "refund unplaced: fed/buyer/part";
  }
  EXPECT_TRUE(journaled);

  // The buyer's executed move (the placed part) is priced with the
  // configured §V.B weights.
  bool priced_move = false;
  for (const MoveRecord& move : report.moves) {
    EXPECT_NEAR(move.reconfig_cost,
                cluster::Dot(move.amount, config.settlement.move_cost_weights),
                1e-9);
    priced_move = priced_move || (move.team == "buyer" &&
                                  move.reconfig_cost > 0.0);
  }
  EXPECT_TRUE(priced_move);
}

TEST(SettlementPipelineTest, FullPlacementFailureRefundsThePayment) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  config.settlement.refund_unplaced = true;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const SpaciousCluster big = MostSpaciousCluster(world.fleet);
  const double qty_fail =
      std::min(0.9 * big.free_cpu, 2.5 * big.max_machine_free_cpu);
  ASSERT_GT(qty_fail, 2.0 * big.max_machine_free_cpu);
  const PoolId pool_fail = *world.fleet.registry().Find(
      PoolKey{big.name, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/doomed";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool_fail, qty_fail}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr);
  EXPECT_EQ(award->outcome.status, PlacementOutcome::Status::kFailed);
  // Refund == payment (both are qty × settled price, rounded once), so
  // the failed buy nets to zero: the award was worth what was delivered.
  EXPECT_EQ(market.TeamBudget("buyer"), endowed);
  EXPECT_EQ(market.quota().EntitlementOf("buyer", pool_fail), 0.0);
}

TEST(SettlementPipelineTest, MixedSignItemsNetBeforeRefundAccounting) {
  // Bundle construction is canonical: a buy and a sell item on the same
  // pool merge to their net before the auction ever sees them, so the
  // quota grant, the payment, the fill intents, and therefore a failed
  // placement's refund all cover exactly the net quantity — the team
  // cannot profit from failing.
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  config.settlement.refund_unplaced = true;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const SpaciousCluster big = MostSpaciousCluster(world.fleet);
  const double qty = std::min(0.9 * big.free_cpu / 0.9,
                              2.5 * big.max_machine_free_cpu);
  // The NET quantity must still exceed the bin-packing retry bound.
  ASSERT_GT(0.9 * qty, 2.0 * big.max_machine_free_cpu);
  const PoolId pool_fail = *world.fleet.registry().Find(
      PoolKey{big.name, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/mixed";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool_fail, qty},
                              bid::BundleItem{pool_fail, -0.1 * qty}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr);
  EXPECT_EQ(award->outcome.status, PlacementOutcome::Status::kFailed);
  ASSERT_EQ(award->outcome.fills.size(), 1u);
  EXPECT_NEAR(award->outcome.fills[0].awarded, 0.9 * qty, 1e-9);
  EXPECT_NEAR(award->outcome.refunded_units, 0.9 * qty, 1e-9);
  // Refund == net payment: the failed award nets to zero, no more, and
  // no entitlement survives.
  EXPECT_EQ(market.TeamBudget("buyer"), endowed);
  EXPECT_EQ(market.quota().EntitlementOf("buyer", pool_fail), 0.0);
}

TEST(SettlementPipelineTest, LegacyGateOffKeepsQuotaAndMoney) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  // refund_unplaced left at the default (off).
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const SpaciousCluster big = MostSpaciousCluster(world.fleet);
  const double qty_fail =
      std::min(0.9 * big.free_cpu, 2.5 * big.max_machine_free_cpu);
  ASSERT_GT(qty_fail, 2.0 * big.max_machine_free_cpu);
  const PoolId pool_fail = *world.fleet.registry().Find(
      PoolKey{big.name, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/doomed";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool_fail, qty_fail}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr);
  // The outcome is still recorded (kFailed) but nothing moved back:
  // quota-only entitlement and the charge both stand — the legacy path.
  EXPECT_EQ(award->outcome.status, PlacementOutcome::Status::kFailed);
  EXPECT_EQ(award->outcome.refund, 0.0);
  EXPECT_EQ(award->outcome.refunded_units, 0.0);
  EXPECT_DOUBLE_EQ(market.quota().EntitlementOf("buyer", pool_fail),
                   qty_fail);
  EXPECT_LT(market.TeamBudget("buyer"), endowed);
  EXPECT_EQ(report.refund_total, 0.0);
}

// ------------------------------------------ outcome feedback (gated) --

TEST(SettlementPipelineTest, OutcomeFeedbackGatePopulatesAgentMemory) {
  // Monolithic task shapes make organic resident placement failures
  // likely. With the gate off the agents' placement memory must stay
  // untouched (the bit-identical contract: no BidOutcome carries
  // placement fields, so ObserveOutcome never resizes the memory); with
  // the gate on, the same world accumulates nonzero penalties.
  const auto run = [](bool feedback) {
    agents::World world = GenerateWorld(SmallWorldConfig());
    MarketConfig config = FastMarketConfig();
    config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
    config.outcome_feedback = feedback;
    Market market(&world.fleet, &world.agents, world.fixed_prices,
                  config);
    std::size_t failures = 0;
    for (int round = 0; round < 3; ++round) {
      failures += market.RunAuction().placement_failures;
    }
    bool any_memory = false;
    double total_penalty = 0.0;
    for (const agents::TeamAgent& agent : world.agents) {
      any_memory = any_memory || !agent.placement_penalty().empty();
      for (double p : agent.placement_penalty()) total_penalty += p;
    }
    return std::tuple{failures, any_memory, total_penalty};
  };
  const auto [off_failures, off_memory, off_penalty] = run(false);
  EXPECT_GT(off_failures, 0u) << "fixture must force failures";
  EXPECT_FALSE(off_memory);
  EXPECT_EQ(off_penalty, 0.0);
  const auto [on_failures, on_memory, on_penalty] = run(true);
  EXPECT_GT(on_failures, 0u);
  EXPECT_TRUE(on_memory);
  EXPECT_GT(on_penalty, 0.0);
}

// ---------------------------------------------- move billing (gated) --

/// A cluster with at least `min_free_cpu` of single-machine headroom (so
/// a small single-task buy is guaranteed to place).
std::string RoomyCluster(const cluster::Fleet& fleet, double min_free_cpu) {
  for (const std::string& name : fleet.ClusterNames()) {
    for (const cluster::Machine& machine :
         fleet.ClusterByName(name).machines()) {
      if (machine.Free().cpu >= min_free_cpu &&
          machine.Free().ram_gb >= 1.0) {
        return name;
      }
    }
  }
  return "";
}

TEST(SettlementPipelineTest, BilledMovesChargeTheMovingTeam) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.settlement.move_cost_weights = cluster::TaskShape{2.0, 0.5, 10.0};
  config.settlement.bill_moves = true;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const std::string roomy = RoomyCluster(world.fleet, 8.0);
  ASSERT_FALSE(roomy.empty());
  const PoolId pool =
      *world.fleet.registry().Find(PoolKey{roomy, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/grow";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool, 4.0}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr);
  ASSERT_EQ(award->outcome.status, PlacementOutcome::Status::kPlaced);

  const MoveRecord* move = nullptr;
  for (const MoveRecord& m : report.moves) {
    if (m.team == "buyer") move = &m;
  }
  ASSERT_NE(move, nullptr);
  EXPECT_NEAR(move->reconfig_cost, 4.0 * 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(
      move->billed,
      Money::FromDollarsRounded(move->reconfig_cost).ToDouble());
  EXPECT_GE(report.move_billing_total, move->billed);
  // The charge landed: budget is endowment minus the auction payment
  // minus the bill, to the micro-dollar.
  EXPECT_EQ(market.TeamBudget("buyer"),
            endowed - Money::FromDollarsRounded(award->payment) -
                Money::FromDollarsRounded(move->reconfig_cost));
  bool journaled = false;
  for (const JournalEntry& entry : market.ledger().Journal()) {
    journaled = journaled || entry.memo == "move reconfig: fed/buyer/grow";
  }
  EXPECT_TRUE(journaled);
}

TEST(SettlementPipelineTest, MoveBillingClampsToRemainingBalance) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  // Absurd weights: the bill vastly exceeds any budget, so the clamp —
  // not an overdraft — must resolve it.
  config.settlement.move_cost_weights = cluster::TaskShape{1e6, 0.0, 0.0};
  config.settlement.bill_moves = true;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const std::string roomy = RoomyCluster(world.fleet, 8.0);
  ASSERT_FALSE(roomy.empty());
  const PoolId pool =
      *world.fleet.registry().Find(PoolKey{roomy, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(100000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/grow";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool, 4.0}})};
  bid.limit = 50000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  const MoveRecord* move = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  for (const MoveRecord& m : report.moves) {
    if (m.team == "buyer") move = &m;
  }
  ASSERT_NE(award, nullptr);
  ASSERT_NE(move, nullptr);
  // The bill took everything that was left after the auction payment —
  // and only that: no overdraft, no negative balance.
  const Money remaining =
      endowed - Money::FromDollarsRounded(award->payment);
  EXPECT_DOUBLE_EQ(move->billed, remaining.ToDouble());
  EXPECT_LT(move->billed, move->reconfig_cost);
  EXPECT_TRUE(market.TeamBudget("buyer").IsZero());
}

TEST(SettlementPipelineTest, FailedPlacementIsNeverBilledForTheMove) {
  // A bounced placement reconfigured nothing: with bill_moves AND
  // refund_unplaced on, the failed buy must net to exactly zero — the
  // auction payment comes back as a refund and no reconfiguration bill
  // is taken on top.
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.max_task_shape = cluster::TaskShape{1e9, 1e9, 1e9};
  config.settlement.refund_unplaced = true;
  config.settlement.move_cost_weights = cluster::TaskShape{2.0, 0.5, 10.0};
  config.settlement.bill_moves = true;
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const SpaciousCluster big = MostSpaciousCluster(world.fleet);
  const double qty_fail =
      std::min(0.9 * big.free_cpu, 2.5 * big.max_machine_free_cpu);
  ASSERT_GT(qty_fail, 2.0 * big.max_machine_free_cpu);
  const PoolId pool_fail = *world.fleet.registry().Find(
      PoolKey{big.name, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/doomed";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool_fail, qty_fail}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  ASSERT_NE(award, nullptr);
  ASSERT_EQ(award->outcome.status, PlacementOutcome::Status::kFailed);
  for (const MoveRecord& move : report.moves) {
    if (move.team != "buyer") continue;
    EXPECT_GT(move.reconfig_cost, 0.0);  // Recorded over the award...
    EXPECT_EQ(move.billed, 0.0);         // ...but nothing landed: no bill.
  }
  EXPECT_EQ(market.TeamBudget("buyer"), endowed);
}

TEST(SettlementPipelineTest, MoveBillingGateOffRecordsCostOnly) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  MarketConfig config = FastMarketConfig();
  config.settlement.move_cost_weights = cluster::TaskShape{2.0, 0.5, 10.0};
  // bill_moves left at the default (off).
  Market market(&world.fleet, &world.agents, world.fixed_prices, config);

  const std::string roomy = RoomyCluster(world.fleet, 8.0);
  ASSERT_FALSE(roomy.empty());
  const PoolId pool =
      *world.fleet.registry().Find(PoolKey{roomy, ResourceKind::kCpu});

  const Money endowed = Money::FromDollars(10000000);
  market.EndowTeam("buyer", endowed, "test");
  bid::Bid bid;
  bid.name = "fed/buyer/grow";
  bid.bundles = {bid::Bundle({bid::BundleItem{pool, 4.0}})};
  bid.limit = 5000000.0;
  market.SubmitExternalBid(Market::ExternalBid{"buyer", bid});

  const AuctionReport report = market.RunAuction();
  const AwardRecord* award = nullptr;
  const MoveRecord* move = nullptr;
  for (const AwardRecord& a : report.awards) {
    if (a.team == "buyer") award = &a;
  }
  for (const MoveRecord& m : report.moves) {
    if (m.team == "buyer") move = &m;
  }
  ASSERT_NE(award, nullptr);
  ASSERT_NE(move, nullptr);
  EXPECT_GT(move->reconfig_cost, 0.0);  // Priced...
  EXPECT_EQ(move->billed, 0.0);         // ...but never billed.
  EXPECT_EQ(report.move_billing_total, 0.0);
  EXPECT_EQ(market.TeamBudget("buyer"),
            endowed - Money::FromDollarsRounded(award->payment));
}

// ------------------------------------------------- rejection reasons --

TEST(SettlementPipelineTest, ExternalRejectionsCarryTheirReason) {
  agents::World world = GenerateWorld(SmallWorldConfig());
  Market market(&world.fleet, &world.agents, world.fixed_prices,
                FastMarketConfig());
  // Unfunded buy: valid as submitted, starved by the budget clamp.
  bid::Bid broke;
  broke.name = "fed/ghost/unfunded";
  broke.bundles = {bid::Bundle({bid::BundleItem{0, 4.0}})};
  broke.limit = 1000.0;
  market.SubmitExternalBid(Market::ExternalBid{"ghost", broke});
  // Malformed: references a pool outside the registry; the team has
  // money, so budget is not the reason.
  market.EndowTeam("clumsy", Money::FromDollars(1000), "test");
  bid::Bid malformed;
  malformed.name = "fed/clumsy/outside";
  malformed.bundles = {bid::Bundle({bid::BundleItem{PoolId{100000}, 1.0}})};
  malformed.limit = 500.0;
  market.SubmitExternalBid(Market::ExternalBid{"clumsy", malformed});

  const AuctionReport report = market.RunAuction();
  ASSERT_EQ(report.external_rejected, 2u);
  ASSERT_EQ(report.external_rejections.size(), 2u);
  EXPECT_EQ(report.external_rejections[0].team, "ghost");
  EXPECT_EQ(report.external_rejections[0].bid_name, "fed/ghost/unfunded");
  EXPECT_EQ(report.external_rejections[0].reason,
            ExternalRejection::Reason::kBudget);
  EXPECT_EQ(report.external_rejections[1].team, "clumsy");
  EXPECT_EQ(report.external_rejections[1].reason,
            ExternalRejection::Reason::kValidation);
  EXPECT_EQ(ToString(ExternalRejection::Reason::kBudget), "budget");
  EXPECT_EQ(ToString(ExternalRejection::Reason::kValidation), "validation");
}

}  // namespace
}  // namespace pm::exchange
