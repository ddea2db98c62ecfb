// planetmarket: the planet-wide reporting plane.
//
// One federated epoch clears N independent market shards; operators read
// the planet through a single page, not N. FederationReport merges the
// per-shard AuctionReports with the routing audit into planet-wide
// aggregates — utilization percentiles across every pool on the planet,
// total revenue and migrations, wire traffic when shards run behind proxy
// nodes — reusing the stats/ and exchange/report machinery shard reports
// are built from.
#pragma once

#include <string>
#include <vector>

#include "exchange/report.h"
#include "federation/router.h"
#include "stats/descriptive.h"

namespace pm::federation {

/// One shard's slice of an epoch.
struct ShardEpochSummary {
  std::size_t shard = 0;
  std::string name;
  exchange::AuctionReport report;  // The shard's full auction report.

  // --------------------------------------------------- failure domains --
  /// False when the shard sat the epoch out (quarantined): `report` is
  /// default-constructed and excluded from every planet aggregate.
  bool participated = true;
  /// True when the shard's epoch failed and was contained: the shard was
  /// rolled back to its checkpoint, so `report` is default-constructed
  /// and excluded from aggregates (notably the all_converged fold — a
  /// contained failure is not a convergence failure).
  bool failed = false;
  /// What the failed shard threw (empty otherwise).
  std::string failure;
  /// Health after the post-epoch transition, for the report page.
  ShardHealth health = ShardHealth::kHealthy;
};

/// The planet ledger's state after an epoch's settlement sweep (all
/// amounts in display dollars; the treasury itself books exact Money).
/// Zero-valued and disabled when the federation runs without a treasury.
struct TreasurySnapshot {
  bool enabled = false;
  double minted = 0.0;
  double burned = 0.0;
  double team_total = 0.0;       // Σ planet team balances.
  double float_total = 0.0;      // Σ shard floats (zero between epochs).
  double shard_net_total = 0.0;  // Σ shard net-settlement accounts.
  std::size_t transfers = 0;     // Cross-shard transfer records so far.
};

/// The failure-domain block of an epoch: what the supervisor contained
/// and where every shard's health machine landed. Zeroed and disabled
/// when the federation runs without a supervisor.
struct HealthBlock {
  bool supervised = false;
  std::size_t failed_shards = 0;       // Contained failures this epoch.
  std::size_t quarantined_shards = 0;  // Sitting out this epoch.
  std::size_t rerouted_bids = 0;   // Failed shards' bids re-queued.
  double refunded_allowance = 0.0; // Treasury floats refunded (dollars).
  std::size_t restored_checkpoints = 0;  // Restores performed this epoch.
  /// Post-transition health per shard (index-aligned with shards).
  std::vector<ShardHealthStatus> statuses;
};

/// The watchdog's verdict on an epoch: what the alert engine did at the
/// T2 barrier. Zeroed and disabled unless the telemetry watchdog's alert
/// gate is armed.
struct AlertBlock {
  bool enabled = false;
  std::size_t transitions = 0;      // Lifecycle transitions this epoch.
  std::vector<std::string> firing;  // Rule names firing after this epoch.
};

/// What the federation arbitrageur did this epoch.
struct ArbitrageSummary {
  bool enabled = false;
  std::size_t buys_planned = 0;
  std::size_t sells_planned = 0;
  double holdings_units = 0.0;  // Warehoused units across all shards.
  double realized_pnl = 0.0;    // Cumulative realized arbitrage P&L.
  double mark_to_market = 0.0;  // Unrealized value over basis.
};

/// One whole-cluster migration executed by the fleet rebalancer.
struct ClusterMigration {
  std::string cluster;       // Name in the donor fleet.
  std::string adopted_name;  // Qualified name in the receiving fleet.
  std::size_t from_shard = 0;
  std::size_t to_shard = 0;
  double from_util = 0.0;  // Donor percentile utilization at decision.
  double to_util = 0.0;    // Receiver percentile utilization at decision.
  double move_cost = 0.0;  // Priced §V.B reconfiguration cost (0 = free).
  double expected_benefit = 0.0;  // Benefit the pricing gate credited.
};

/// Everything recorded about one federated epoch.
struct FederationReport {
  int epoch = 0;

  std::vector<ShardEpochSummary> shards;

  // Routing audit: one decision per federated bid, plus the materialized
  // cross-market parts (kept so tests and replays can re-inject them).
  std::vector<RouteDecision> routing;
  std::vector<RoutedBid> routed;

  // Planet-wide aggregates.
  std::size_t total_bids = 0;
  std::size_t total_winners = 0;
  std::size_t total_moves = 0;
  std::size_t routed_parts = 0;   // Cross-market parts placed this epoch.
  std::size_t rejected_parts = 0; // Routed parts the shard gate rejected
                                  // (e.g. no budget in that shard).
  std::size_t spilled_bids = 0;   // Federated bids re-routed off their
                                  // preferred shard.
  double operator_revenue = 0.0;
  /// Placement outcomes across every shard: awards whose buy side failed
  /// (entirely or partially) the bin-packing step, and the dollars
  /// refunded for unplaced units (zero unless the shards'
  /// SettlementPolicy::refund_unplaced gate is on).
  std::size_t placement_failures = 0;
  std::size_t partial_placements = 0;
  double refund_total = 0.0;
  /// §V.B reconfiguration charges collected across shards (zero unless
  /// the shards' SettlementPolicy::bill_moves gate is on).
  double move_billing_total = 0.0;
  long long demand_evaluations = 0;
  long long transport_messages = 0;  // Wire traffic (proxy-node shards).
  long long transport_bytes = 0;
  int max_rounds = 0;      // The slowest shard's round count.
  bool all_converged = true;

  // Fleet health across every pool on the planet, post-auction.
  double utilization_spread = 0.0;          // exchange::UtilizationSpread.
  std::vector<double> utilization_deciles;  // p10..p90 across all pools.

  // Economy layer (zeroed when the corresponding feature is disabled).
  /// Cross-shard relative clearing-price spread, mean over kinds priced
  /// in at least two shards (see federation/arbitrage.h).
  double clearing_spread = 0.0;
  TreasurySnapshot treasury;
  ArbitrageSummary arbitrage;
  std::vector<ClusterMigration> migrations;

  /// Failure-domain audit (disabled without a supervisor).
  HealthBlock health;

  /// Watchdog audit (disabled without the telemetry alert gate).
  AlertBlock alerts;
};

/// Merges per-shard summaries and the routing audit into one report.
FederationReport BuildFederationReport(int epoch,
                                       std::vector<ShardEpochSummary> shards,
                                       RoutingResult routing);

/// Renders the planet-wide summary page: one row per shard plus the
/// aggregate block.
std::string RenderFederationSummary(const FederationReport& report);

}  // namespace pm::federation
