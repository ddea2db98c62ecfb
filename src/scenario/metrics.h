// planetmarket: scenario metrics — the structured time series a run emits.
//
// Every epoch of a scenario run is folded into one EpochSample (market
// aggregates, placement outcomes, the planet ledger's conservation
// residual, fired events), and the whole run into a ScenarioMetrics with
// totals and the verdicts of the scenario's SLO-style assertions.
// ToJson() renders everything with fixed-precision formatting and no
// environment-dependent content (no timestamps, no host data), so two
// runs of the same scenario from the same seed produce byte-identical
// JSON — the determinism contract tests/scenario_test.cpp asserts and
// the bench suite records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "federation/report.h"

namespace pm::scenario {

/// One epoch's slice of the run.
struct EpochSample {
  int epoch = 0;
  std::size_t events_fired = 0;  // Scenario events dispatched before it.

  // Market aggregates (from the FederationReport).
  std::size_t total_bids = 0;
  std::size_t total_winners = 0;
  double operator_revenue = 0.0;
  double clearing_spread = 0.0;   // Cross-shard relative price spread.
  double utilization_spread = 0.0;
  double utilization_p10 = 0.0;
  double utilization_p50 = 0.0;
  double utilization_p90 = 0.0;
  bool all_converged = true;

  // Placement outcomes (the PR 4 pipeline, summed across shard awards).
  std::size_t placement_failures = 0;
  std::size_t partial_placements = 0;
  double awarded_units = 0.0;
  double placed_units = 0.0;
  double refunded_units = 0.0;
  double refund_total = 0.0;       // Dollars.
  double move_billing_total = 0.0; // Dollars (bill_moves shards only).

  // Economy layer.
  double treasury_residual = 0.0;  // |Σ accounts − (minted − burned)|.
  std::size_t migrations = 0;

  // World shape.
  std::size_t total_pools = 0;     // Σ shard registry sizes.
  long long churn_started = 0;     // Cumulative churn jobs started.

  // Failure domains (all zero without an epoch supervisor).
  std::size_t failed_shards = 0;        // Contained failures this epoch.
  std::size_t quarantined_shards = 0;   // Shards sitting the epoch out.
  std::size_t restored_checkpoints = 0; // Checkpoint restores performed.
  std::size_t rerouted_bids = 0;        // Failed shards' bids re-queued.
  double refunded_allowance = 0.0;      // Treasury floats returned ($).
};

/// The verdict of one SLO-style assertion.
struct SloResult {
  std::string name;
  bool pass = false;
  std::string detail;  // Human-readable observed-vs-required line.
};

/// Everything a scenario run emits.
struct ScenarioMetrics {
  std::string scenario;
  std::uint64_t seed = 0;
  int epochs = 0;
  std::size_t num_shards = 0;

  std::vector<EpochSample> series;

  // Run totals (sums / peaks over the series).
  double refund_total = 0.0;
  double awarded_units = 0.0;
  double placed_units = 0.0;
  double refunded_units = 0.0;
  double move_billing_total = 0.0;
  std::size_t placement_failures = 0;
  double peak_clearing_spread = 0.0;
  double max_treasury_residual = 0.0;
  std::size_t shard_failures = 0;       // Σ contained failures.
  std::size_t checkpoint_restores = 0;  // Σ restores across the run.

  /// SLO verdicts; empty when the run was too short to evaluate them
  /// (epochs < SloPolicy::min_epochs — the 1-epoch CI smokes).
  std::vector<SloResult> slos;
  bool slos_evaluated = false;
  bool slo_pass = true;  // True when every evaluated SLO passed (or none).

  /// Deterministic JSON rendering (fixed precision, no host/time data).
  std::string ToJson() const;
};

/// Folds one federated epoch report into a sample. `treasury_residual`,
/// `total_pools` and `churn_started` are runner-supplied (they read
/// state the report does not carry).
EpochSample SampleEpoch(const federation::FederationReport& report,
                        std::size_t events_fired, double treasury_residual,
                        std::size_t total_pools, long long churn_started);

}  // namespace pm::scenario
