// planetmarket: scenario specs and the named-scenario registry.
//
// A ScenarioSpec is a complete, replayable experiment: the shard worlds,
// the federation/economy configuration, the event timeline, and the
// SLO-style assertions the run must satisfy. The registry
// (scenario/library.cpp) ships named scenarios covering the stress
// regimes a market allocator is judged on — demand shocks, flash crowds,
// shard outages with recovery, price wars, capacity expansion, churn
// waves — each deterministic from one root seed (see
// ScenarioRunner::EventSeed and docs/scenarios.md).
#pragma once

#include <string>
#include <vector>

#include "federation/federated_exchange.h"
#include "scenario/events.h"

namespace pm::scenario {

/// SLO-style assertions evaluated on a finished run's metrics. Checks
/// that are trivially off (zero thresholds, false flags) are skipped;
/// treasury conservation and the awarded == placed + refunded identity
/// are always checked, at fixed tolerances, when the corresponding
/// feature is enabled. Runs shorter than min_epochs (the 1-epoch CI
/// smokes) skip evaluation entirely — their timelines have not played
/// out.
struct SloPolicy {
  int min_epochs = 4;

  bool require_all_converged = false;
  bool expect_refunds = false;             // Total refunds must be > 0.
  bool expect_placement_failures = false;
  bool expect_pool_growth = false;         // Pool count must grow mid-run.
  bool expect_churn = false;               // Churn jobs must have started.
  bool expect_move_billing = false;        // Move charges must be > 0.

  /// Peak cross-shard clearing spread must reach this (price war).
  double min_peak_clearing_spread = 0.0;

  /// Peak epoch bid count must reach this multiple of epoch 0's count
  /// (flash crowds swell the auction).
  double min_peak_bids_ratio = 0.0;

  /// Peak epoch operator revenue must reach this multiple of epoch 0's
  /// (demand shocks swell what the market collects).
  double min_peak_revenue_ratio = 0.0;

  // ----------------------------------------------- failure domains --
  bool expect_shard_failures = false;      // Σ contained failures > 0.
  bool expect_checkpoint_restores = false; // Σ restores > 0.
  /// The final epoch must run with zero failed and zero quarantined
  /// shards — every contained failure drained its backoff and rejoined.
  bool require_full_recovery = false;

  // ------------------------------------------------------ watchdog --
  /// Alert names (telemetry/alerts.h rule names) that MUST have fired at
  /// least once during the run, and names that must NEVER have fired —
  /// the scenario fails on missing or on spurious alerts. Either list
  /// being non-empty requires the spec to arm the telemetry watchdog
  /// (federation.telemetry.enabled + watchdog.alerts); the runner fails
  /// the SLO loudly when the assertion has no engine to read.
  std::vector<std::string> expect_alerts;
  std::vector<std::string> forbid_alerts;
};

/// Epochs a scenario runs unless the runner is told otherwise; every
/// scenario's timeline plays out inside it.
inline constexpr int kDefaultEpochs = 8;

/// A complete named experiment.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<federation::ShardSpec> shards;
  federation::FederationConfig federation;  // Seed is overridden by the
                                            // runner's root seed.
  std::vector<ScenarioEvent> events;
  SloPolicy slo;
};

/// Registered scenario names, in registry order.
std::vector<std::string> ScenarioNames();

/// Looks a scenario up by name; CHECK-fails on unknown names (callers
/// list ScenarioNames() to the operator first).
const ScenarioSpec& FindScenario(const std::string& name);

/// The full registry (scenario/library.cpp defines it).
const std::vector<ScenarioSpec>& ScenarioLibrary();

}  // namespace pm::scenario
