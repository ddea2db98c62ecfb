#include "federation/report.h"

#include <algorithm>
#include <sstream>

#include "common/table.h"
#include "stats/descriptive.h"

namespace pm::federation {

FederationReport BuildFederationReport(
    int epoch, std::vector<ShardEpochSummary> shards,
    RoutingResult routing) {
  FederationReport report;
  report.epoch = epoch;
  report.routing = std::move(routing.decisions);
  report.routed = std::move(routing.routed);
  report.routed_parts = report.routed.size();
  for (const RouteDecision& decision : report.routing) {
    if (decision.spilled) ++report.spilled_bids;
  }

  std::vector<double> planet_utilization;
  for (ShardEpochSummary& shard : shards) {
    if (!shard.participated || shard.failed) {
      // Quarantined or contained-failed shards ran no settled auction:
      // their default-constructed reports must not poison the planet
      // aggregates (all_converged especially — a contained failure is
      // not a convergence failure).
      continue;
    }
    const exchange::AuctionReport& r = shard.report;
    report.total_bids += r.num_bids;
    report.total_winners += r.num_winners;
    report.rejected_parts += r.external_rejected;
    report.total_moves += r.moves.size();
    report.operator_revenue += r.operator_revenue;
    report.placement_failures += r.placement_failures;
    report.partial_placements += r.partial_placements;
    report.refund_total += r.refund_total;
    report.move_billing_total += r.move_billing_total;
    report.demand_evaluations += r.demand_evaluations;
    report.transport_messages += r.transport_messages;
    report.transport_bytes += r.transport_bytes;
    report.max_rounds = std::max(report.max_rounds, r.rounds);
    report.all_converged = report.all_converged && r.converged;
    planet_utilization.insert(planet_utilization.end(),
                              r.post_utilization.begin(),
                              r.post_utilization.end());
  }
  if (!planet_utilization.empty()) {
    report.utilization_spread =
        exchange::UtilizationSpread(planet_utilization);
    for (int decile = 1; decile <= 9; ++decile) {
      report.utilization_deciles.push_back(
          stats::Quantile(planet_utilization, decile / 10.0));
    }
  }
  report.shards = std::move(shards);
  return report;
}

std::string RenderFederationSummary(const FederationReport& report) {
  std::ostringstream os;
  os << "=== federation epoch " << (report.epoch + 1) << " ===\n";
  TextTable table({"shard", "bids", "won", "rounds", "conv", "revenue",
                   "moves", "wire msgs"});
  for (const ShardEpochSummary& shard : report.shards) {
    if (!shard.participated || shard.failed) {
      const std::string why =
          shard.failed ? "FAILED" : "quarantined";
      table.AddRow({shard.name, why, "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const exchange::AuctionReport& r = shard.report;
    table.AddRow({shard.name, std::to_string(r.num_bids),
                  std::to_string(r.num_winners), std::to_string(r.rounds),
                  r.converged ? "yes" : "NO",
                  "$" + FormatF(r.operator_revenue, 2),
                  std::to_string(r.moves.size()),
                  std::to_string(r.transport_messages)});
  }
  table.AddRow({"planet", std::to_string(report.total_bids),
                std::to_string(report.total_winners),
                std::to_string(report.max_rounds),
                report.all_converged ? "yes" : "NO",
                "$" + FormatF(report.operator_revenue, 2),
                std::to_string(report.total_moves),
                std::to_string(report.transport_messages)});
  os << table.Render();
  os << "routing: " << report.routing.size() << " federated bids -> "
     << report.routed_parts << " parts, " << report.spilled_bids
     << " spilled, " << report.rejected_parts << " rejected at the gate\n";
  os << "placement: " << report.placement_failures << " failures, "
     << report.partial_placements << " partial awards, refunds $"
     << FormatF(report.refund_total, 2);
  if (report.move_billing_total > 0.0) {
    os << ", move bills $" << FormatF(report.move_billing_total, 2);
  }
  os << '\n';
  os << "utilization spread " << FormatF(report.utilization_spread, 2)
     << " pp";
  if (!report.utilization_deciles.empty()) {
    os << "; deciles";
    for (double d : report.utilization_deciles) {
      os << ' ' << FormatPct(d, 0);
    }
  }
  os << '\n';
  os << "clearing-price spread " << FormatPct(report.clearing_spread, 1)
     << " across shards\n";
  if (report.treasury.enabled) {
    os << "treasury: minted $" << FormatF(report.treasury.minted, 2)
       << ", teams $" << FormatF(report.treasury.team_total, 2)
       << ", float $" << FormatF(report.treasury.float_total, 2)
       << ", shard-net $" << FormatF(report.treasury.shard_net_total, 2)
       << " (" << report.treasury.transfers << " transfers)\n";
  }
  if (report.arbitrage.enabled) {
    os << "arbitrage: " << report.arbitrage.buys_planned << " buys, "
       << report.arbitrage.sells_planned << " sells, warehouse "
       << FormatF(report.arbitrage.holdings_units, 1)
       << " units, realized P&L $"
       << FormatF(report.arbitrage.realized_pnl, 2) << ", mark $"
       << FormatF(report.arbitrage.mark_to_market, 2) << '\n';
  }
  if (report.health.supervised) {
    os << "health: " << report.health.failed_shards << " failed, "
       << report.health.quarantined_shards << " quarantined, "
       << report.health.restored_checkpoints << " restores, "
       << report.health.rerouted_bids << " bids rerouted, allowance $"
       << FormatF(report.health.refunded_allowance, 2) << " returned\n";
    for (std::size_t k = 0; k < report.health.statuses.size(); ++k) {
      const ShardHealthStatus& s = report.health.statuses[k];
      if (s.status == ShardHealth::kHealthy && s.retries == 0 &&
          s.restored_checkpoints == 0) {
        continue;  // Only shards with a story get a line.
      }
      os << "  shard " << k << " ["
         << (k < report.shards.size() ? report.shards[k].name : "?")
         << "]: " << ToString(s.status) << ", streak "
         << s.failure_streak << ", backoff " << s.backoff_remaining
         << ", retries " << s.retries << ", restores "
         << s.restored_checkpoints << '\n';
    }
  }
  if (report.alerts.enabled) {
    os << "alerts: " << report.alerts.transitions
       << " transition(s), firing:";
    if (report.alerts.firing.empty()) os << " (none)";
    for (const std::string& name : report.alerts.firing) {
      os << " " << name;
    }
    os << '\n';
  }
  for (const ClusterMigration& migration : report.migrations) {
    os << "rebalance: cluster " << migration.cluster << " (shard "
       << migration.from_shard << ", util "
       << FormatPct(migration.from_util, 0) << ") -> shard "
       << migration.to_shard << " (util "
       << FormatPct(migration.to_util, 0) << ") as "
       << migration.adopted_name;
    if (migration.move_cost > 0.0) {
      os << " (move cost $" << FormatF(migration.move_cost, 2)
         << " vs benefit $" << FormatF(migration.expected_benefit, 2)
         << ")";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace pm::federation
