// planetmarket: the named-scenario library.
//
// Each scenario is a small, fast federation (a few shards, a few dozen
// teams each) plus a scripted timeline and the SLOs that make its
// verdict checkable. Worlds are deliberately compact so the whole
// registry sweeps in seconds (bench/scenario_suite.cpp) and 1-epoch
// smokes run in CI; the shocks are sized to move the market hard at
// that scale. Thresholds are calibrated against the default seed — the
// runs are deterministic, so a passing SLO stays passing until the
// mechanism itself changes.
#include "scenario/scenario.h"

namespace pm::scenario {
namespace {

/// A compact shard: `teams` bidders over 5 clusters, utilization spread
/// across [lo, hi] so congestion-weighted reserves have something to
/// price.
federation::ShardSpec CompactShard(std::string name, int teams, double lo,
                                   double hi) {
  federation::ShardSpec spec;
  spec.name = std::move(name);
  spec.workload.num_teams = teams;
  spec.workload.num_clusters = 5;
  spec.workload.min_machines_per_cluster = 14;
  spec.workload.max_machines_per_cluster = 26;
  spec.workload.min_target_utilization = lo;
  spec.workload.max_target_utilization = hi;
  spec.market.auction.max_rounds = 30000;
  return spec;
}

ScenarioSpec DemandShock() {
  ScenarioSpec spec;
  spec.name = "demand-shock";
  spec.description =
      "Every team in shard 0 wants 4x its usual growth for three epochs; "
      "prices and operator revenue must spike, money must stay conserved.";
  spec.shards.push_back(CompactShard("steady-a", 32, 0.30, 0.70));
  spec.shards.push_back(CompactShard("steady-b", 32, 0.30, 0.70));
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kDemandShock,
                                      /*epoch=*/2, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/4.0,
                                      /*count=*/0, Money()});
  spec.slo.min_peak_revenue_ratio = 1.15;
  spec.slo.require_all_converged = true;
  return spec;
}

ScenarioSpec FlashCrowd() {
  ScenarioSpec spec;
  spec.name = "flash-crowd";
  spec.description =
      "Ten federated newcomers storm the planet for three epochs, buy "
      "wherever is cheapest, then leave; their money burns on exit.";
  spec.shards.push_back(CompactShard("west", 28, 0.25, 0.60));
  spec.shards.push_back(CompactShard("east", 28, 0.35, 0.75));
  spec.shards.push_back(CompactShard("south", 28, 0.20, 0.55));
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kFlashCrowd,
                                      /*epoch=*/2, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/40.0,
                                      /*count=*/10,
                                      Money::FromDollars(60000)});
  spec.slo.min_peak_bids_ratio = 1.05;
  return spec;
}

ScenarioSpec ShardOutage() {
  ScenarioSpec spec;
  spec.name = "shard-outage";
  spec.description =
      "Half of shard 0's clusters fail for two epochs while displaced "
      "demand re-deploys as rigid monoliths; awards that cannot "
      "bin-pack must be refunded (awarded == placed + refunded), and "
      "outcome-aware residents learn to avoid the broken capacity.";
  spec.shards.push_back(CompactShard("fragile", 30, 0.45, 0.85));
  spec.shards.push_back(CompactShard("backup", 30, 0.20, 0.50));
  for (federation::ShardSpec& shard : spec.shards) {
    // Monolithic deployments: buys materialize as one task (the §V.B
    // experiments' rigid services), so a won award larger than any
    // machine's headroom fails placement and exercises the refund path.
    shard.market.max_task_shape =
        cluster::TaskShape{1e9, 1e9, 1e9};
    shard.market.settlement.refund_unplaced = true;
    shard.market.outcome_feedback = true;
  }
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kShardOutage,
                                      /*epoch=*/2, /*duration=*/2,
                                      /*shard=*/0, /*magnitude=*/0.5,
                                      /*count=*/0, Money()});
  // The displaced services: rigid 150-CPU failover deployments hunting
  // for new capacity during the outage window.
  spec.events.push_back(ScenarioEvent{EventKind::kFlashCrowd,
                                      /*epoch=*/2, /*duration=*/2,
                                      /*shard=*/1, /*magnitude=*/150.0,
                                      /*count=*/4,
                                      Money::FromDollars(120000)});
  spec.slo.expect_refunds = true;
  spec.slo.expect_placement_failures = true;
  spec.slo.min_epochs = 5;
  return spec;
}

ScenarioSpec PriceWar() {
  ScenarioSpec spec;
  spec.name = "price-war";
  spec.description =
      "Four deep-pocketed aggressors pin themselves to the contested "
      "shard and bid 8x fixed cost for three epochs; the cross-shard "
      "clearing spread must blow out while the ledger stays balanced.";
  spec.shards.push_back(CompactShard("contested", 30, 0.50, 0.85));
  spec.shards.push_back(CompactShard("quiet", 30, 0.20, 0.50));
  spec.federation.router.policy = federation::RoutingPolicy::kHomeAffinity;
  spec.federation.router.spill_threshold = 50.0;  // Stand and fight.
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kPriceWar,
                                      /*epoch=*/2, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/8.0,
                                      /*count=*/4,
                                      Money::FromDollars(150000)});
  spec.slo.min_peak_clearing_spread = 0.25;
  return spec;
}

ScenarioSpec OutageDuringPriceWar() {
  ScenarioSpec spec;
  spec.name = "outage-during-price-war";
  spec.description =
      "The contested shard crashes hard in the middle of a price war — "
      "twice. The epoch supervisor must contain both failures, restore "
      "the shard from its checkpoint, refund its treasury float, "
      "quarantine it after the streak, and re-admit it after backoff; "
      "the planet finishes the run fully recovered with the ledger "
      "conserved throughout.";
  spec.shards.push_back(CompactShard("contested", 30, 0.50, 0.85));
  spec.shards.push_back(CompactShard("quiet", 30, 0.20, 0.50));
  for (federation::ShardSpec& shard : spec.shards) {
    // Refund-gated settlement keeps the awarded == placed + refunded
    // identity live through the crashes (the always-on SLO check).
    shard.market.settlement.refund_unplaced = true;
  }
  spec.federation.router.policy = federation::RoutingPolicy::kHomeAffinity;
  spec.federation.router.spill_threshold = 50.0;
  // Degraded shards look 50% hotter to the router, so the recovering
  // contested shard sheds load until it clears a probation epoch.
  spec.federation.router.degraded_heat_penalty = 0.5;
  spec.federation.economy.treasury = true;
  spec.federation.supervisor.enabled = true;
  spec.federation.supervisor.quarantine_streak = 2;
  // The war: four aggressors pin the contested shard at 8x fixed cost.
  spec.events.push_back(ScenarioEvent{EventKind::kPriceWar,
                                      /*epoch=*/1, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/8.0,
                                      /*count=*/4,
                                      Money::FromDollars(150000)});
  // The outage: shard 0 crashes after its auction in epochs 2 and 3
  // (streak 2 -> quarantined with backoff 1), sits out epoch 4, runs
  // probation in epoch 5, and is healthy again for 6-7.
  spec.events.push_back(ScenarioEvent{EventKind::kShardCrash,
                                      /*epoch=*/2, /*duration=*/2,
                                      /*shard=*/0, /*magnitude=*/0.0,
                                      /*count=*/0, Money()});
  spec.slo.expect_shard_failures = true;
  spec.slo.expect_checkpoint_restores = true;
  spec.slo.require_full_recovery = true;
  spec.slo.min_epochs = 7;
  // Watchdog coverage: this scenario always runs with the full watchdog
  // armed — the containment alert must fire at the crash epochs and the
  // quarantine alert when the shard sits out; the treasury drift alert
  // must stay silent throughout (the conservation contract under fire).
  spec.federation.telemetry.enabled = true;
  spec.federation.telemetry.watchdog.recording_rules = true;
  spec.federation.telemetry.watchdog.alerts = true;
  spec.slo.expect_alerts = {"containment", "quarantine"};
  spec.slo.forbid_alerts = {"treasury-conservation-drift"};
  return spec;
}

ScenarioSpec CapacityExpansion() {
  ScenarioSpec spec;
  spec.name = "capacity-expansion";
  spec.description =
      "The operator lands two new clusters in the hot shard mid-run "
      "(append-only pool growth); priced+billed reconfiguration moves "
      "follow the new capacity and the planet ledger absorbs the bills.";
  spec.shards.push_back(CompactShard("cramped", 32, 0.55, 0.90));
  spec.shards.push_back(CompactShard("spare", 32, 0.25, 0.55));
  for (federation::ShardSpec& shard : spec.shards) {
    // Satellite coverage: §V.B move pricing with billing on — every
    // relocation into the new capacity is charged to the mover.
    shard.market.settlement.move_cost_weights =
        cluster::TaskShape{0.5, 0.02, 0.1};
    shard.market.settlement.bill_moves = true;
  }
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kCapacityExpansion,
                                      /*epoch=*/2, /*duration=*/1,
                                      /*shard=*/0, /*magnitude=*/1.0,
                                      /*count=*/20, Money()});
  spec.events.push_back(ScenarioEvent{EventKind::kCapacityExpansion,
                                      /*epoch=*/4, /*duration=*/1,
                                      /*shard=*/0, /*magnitude=*/1.0,
                                      /*count=*/20, Money()});
  spec.slo.expect_pool_growth = true;
  spec.slo.expect_move_billing = true;
  return spec;
}

ScenarioSpec ChurnWave() {
  ScenarioSpec spec;
  spec.name = "churn-wave";
  spec.description =
      "Background job churn surges through both shards in overlapping "
      "waves (quota-admitted arrivals, exponential lifetimes); the "
      "market keeps re-pricing a fleet that never sits still.";
  spec.shards.push_back(CompactShard("churny-a", 30, 0.30, 0.70));
  spec.shards.push_back(CompactShard("churny-b", 30, 0.30, 0.70));
  spec.federation.economy.treasury = true;
  spec.events.push_back(ScenarioEvent{EventKind::kChurnWave,
                                      /*epoch=*/1, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/10.0,
                                      /*count=*/0, Money()});
  spec.events.push_back(ScenarioEvent{EventKind::kChurnWave,
                                      /*epoch=*/3, /*duration=*/3,
                                      /*shard=*/1, /*magnitude=*/10.0,
                                      /*count=*/0, Money()});
  spec.slo.expect_churn = true;
  return spec;
}

}  // namespace

const std::vector<ScenarioSpec>& ScenarioLibrary() {
  static const std::vector<ScenarioSpec> library = [] {
    std::vector<ScenarioSpec> specs;
    specs.push_back(DemandShock());
    specs.push_back(FlashCrowd());
    specs.push_back(ShardOutage());
    specs.push_back(PriceWar());
    specs.push_back(OutageDuringPriceWar());
    specs.push_back(CapacityExpansion());
    specs.push_back(ChurnWave());
    return specs;
  }();
  return library;
}

}  // namespace pm::scenario
