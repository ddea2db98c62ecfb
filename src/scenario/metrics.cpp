#include "scenario/metrics.h"

#include <cmath>
#include <sstream>

#include "common/table.h"

namespace pm::scenario {
namespace {

std::string Bool(bool value) { return value ? "true" : "false"; }

}  // namespace

EpochSample SampleEpoch(const federation::FederationReport& report,
                        std::size_t events_fired, double treasury_residual,
                        std::size_t total_pools, long long churn_started) {
  EpochSample sample;
  sample.epoch = report.epoch;
  sample.events_fired = events_fired;
  sample.total_bids = report.total_bids;
  sample.total_winners = report.total_winners;
  sample.operator_revenue = report.operator_revenue;
  sample.clearing_spread = report.clearing_spread;
  sample.utilization_spread = report.utilization_spread;
  if (report.utilization_deciles.size() == 9) {
    sample.utilization_p10 = report.utilization_deciles[0];
    sample.utilization_p50 = report.utilization_deciles[4];
    sample.utilization_p90 = report.utilization_deciles[8];
  }
  sample.all_converged = report.all_converged;
  sample.placement_failures = report.placement_failures;
  sample.partial_placements = report.partial_placements;
  for (const federation::ShardEpochSummary& shard : report.shards) {
    for (const exchange::AwardRecord& award : shard.report.awards) {
      sample.awarded_units += award.outcome.awarded_units;
      sample.placed_units += award.outcome.placed_units;
      sample.refunded_units += award.outcome.refunded_units;
    }
  }
  sample.refund_total = report.refund_total;
  sample.move_billing_total = report.move_billing_total;
  sample.treasury_residual = treasury_residual;
  sample.migrations = report.migrations.size();
  sample.total_pools = total_pools;
  sample.churn_started = churn_started;
  sample.failed_shards = report.health.failed_shards;
  sample.quarantined_shards = report.health.quarantined_shards;
  sample.restored_checkpoints = report.health.restored_checkpoints;
  sample.rerouted_bids = report.health.rerouted_bids;
  sample.refunded_allowance = report.health.refunded_allowance;
  return sample;
}

std::string ScenarioMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"scenario\": " << JsonQuote(scenario) << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"epochs\": " << epochs << ",\n";
  os << "  \"num_shards\": " << num_shards << ",\n";
  os << "  \"series\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const EpochSample& s = series[i];
    os << "    {\"epoch\": " << s.epoch
       << ", \"events_fired\": " << s.events_fired
       << ", \"bids\": " << s.total_bids
       << ", \"winners\": " << s.total_winners
       << ", \"revenue\": " << JsonNum(s.operator_revenue)
       << ", \"clearing_spread\": " << JsonNum(s.clearing_spread)
       << ", \"utilization_spread\": " << JsonNum(s.utilization_spread)
       << ", \"utilization_p10\": " << JsonNum(s.utilization_p10)
       << ", \"utilization_p50\": " << JsonNum(s.utilization_p50)
       << ", \"utilization_p90\": " << JsonNum(s.utilization_p90)
       << ", \"all_converged\": " << Bool(s.all_converged)
       << ", \"placement_failures\": " << s.placement_failures
       << ", \"partial_placements\": " << s.partial_placements
       << ", \"awarded_units\": " << JsonNum(s.awarded_units)
       << ", \"placed_units\": " << JsonNum(s.placed_units)
       << ", \"refunded_units\": " << JsonNum(s.refunded_units)
       << ", \"refund_total\": " << JsonNum(s.refund_total)
       << ", \"move_billing_total\": " << JsonNum(s.move_billing_total)
       << ", \"treasury_residual\": " << JsonNum(s.treasury_residual)
       << ", \"migrations\": " << s.migrations
       << ", \"total_pools\": " << s.total_pools
       << ", \"churn_started\": " << s.churn_started
       << ", \"failed_shards\": " << s.failed_shards
       << ", \"quarantined_shards\": " << s.quarantined_shards
       << ", \"restored_checkpoints\": " << s.restored_checkpoints
       << ", \"rerouted_bids\": " << s.rerouted_bids
       << ", \"refunded_allowance\": " << JsonNum(s.refunded_allowance) << "}"
       << (i + 1 < series.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"totals\": {\n";
  os << "    \"refund_total\": " << JsonNum(refund_total) << ",\n";
  os << "    \"awarded_units\": " << JsonNum(awarded_units) << ",\n";
  os << "    \"placed_units\": " << JsonNum(placed_units) << ",\n";
  os << "    \"refunded_units\": " << JsonNum(refunded_units) << ",\n";
  os << "    \"move_billing_total\": " << JsonNum(move_billing_total) << ",\n";
  os << "    \"placement_failures\": " << placement_failures << ",\n";
  os << "    \"peak_clearing_spread\": " << JsonNum(peak_clearing_spread)
     << ",\n";
  os << "    \"max_treasury_residual\": " << JsonNum(max_treasury_residual)
     << ",\n";
  os << "    \"shard_failures\": " << shard_failures << ",\n";
  os << "    \"checkpoint_restores\": " << checkpoint_restores
     << "\n  },\n";
  os << "  \"slo\": {\n";
  os << "    \"evaluated\": " << Bool(slos_evaluated) << ",\n";
  os << "    \"pass\": " << Bool(slo_pass) << ",\n";
  os << "    \"checks\": [\n";
  for (std::size_t i = 0; i < slos.size(); ++i) {
    os << "      {\"name\": " << JsonQuote(slos[i].name)
       << ", \"pass\": " << Bool(slos[i].pass)
       << ", \"detail\": " << JsonQuote(slos[i].detail) << "}"
       << (i + 1 < slos.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace pm::scenario
