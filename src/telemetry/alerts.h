// planetmarket: the alert engine — the watchdog plane's judgment layer.
//
// Recording rules (rules.h) turn raw registry values into per-epoch
// signals; alert rules turn those signals into a deterministic lifecycle
// an operator (or a scenario SLO) can assert against. Each rule watches
// one metric name — raw or `derived:` — across every label set it has,
// so a per-shard series yields one independent alert instance per shard.
//
// Lifecycle, stamped in logical epoch time only:
//
//   inactive ──breach──► pending ──breach × for_epochs──► firing
//   pending  ──clear───► inactive        firing ──clear──► resolved
//   resolved ──────────► inactive (or back to pending on a new breach)
//
// `for_epochs` is the hysteresis: the breach must hold that many
// CONSECUTIVE epochs before the alert fires (for_epochs <= 1 fires on
// first breach, skipping the visible pending epoch). `resolved` is
// visible for exactly one evaluation so timelines record recovery as an
// event, not as silence.
//
// Evaluation runs once per epoch in the federation's single-threaded T2
// barrier (after the rule engine, before SnapshotEpoch), so the timeline
// JSON is byte-identical across reruns and thread counts. Every
// transition is also handed back to the caller, which mirrors it into
// the FlightRecorder rings and the FederationReport alert block.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.h"

namespace pm::telemetry {

enum class AlertSeverity { kInfo, kWarning, kCritical };
enum class AlertState { kInactive, kPending, kFiring, kResolved };

std::string_view ToString(AlertSeverity severity);
std::string_view ToString(AlertState state);

/// One declarative alert rule: breach when the watched value exceeds
/// `threshold`.
struct AlertRule {
  std::string name;     // Alert name ("containment") — the SLO handle.
  /// Watched metric name (counter or gauge; gauges win when both exist),
  /// evaluated per label set. May carry the `derived:` prefix.
  std::string metric;
  double threshold = 0.0;
  int for_epochs = 1;      // Consecutive breach epochs before firing.
  AlertSeverity severity = AlertSeverity::kWarning;
};

/// One lifecycle transition of one alert instance — the timeline unit.
struct AlertTransition {
  int epoch = 0;
  std::string rule;    // AlertRule::name.
  std::string series;  // Canonical key of the watched instance.
  AlertState from = AlertState::kInactive;
  AlertState to = AlertState::kInactive;
  AlertSeverity severity = AlertSeverity::kWarning;
  double value = 0.0;  // Observed value at the transition.
};

/// The shipped alert pack over DefaultRecordingRules() — containment,
/// quarantine, refund-storm, spread-blowout, treasury-conservation-drift
/// (docs/observability.md documents each threshold).
std::vector<AlertRule> DefaultAlertRules();

/// The profiler's work-drift pack over DefaultWorkRecordingRules()
/// (rules.h), appended when telemetry.profiler.work_accounting and
/// watchdog.alerts are both armed: sustained epoch-over-epoch blowups
/// of the deterministic work counters — the perf-regression proxy that
/// fires identically on every host.
std::vector<AlertRule> DefaultWorkAlertRules();

class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules);

  const std::vector<AlertRule>& rules() const { return rules_; }

  /// Evaluates every rule against the registry's current values. Call
  /// exactly once per epoch, after the recording rules. Returns the
  /// transitions that happened THIS epoch (already appended to the
  /// timeline), in deterministic (rule order, then key order) order.
  std::vector<AlertTransition> EvaluateEpoch(
      const MetricsRegistry& registry, int epoch);

  /// The full transition history, in evaluation order.
  const std::vector<AlertTransition>& Timeline() const {
    return timeline_;
  }

  /// Rule names with at least one instance currently firing (sorted,
  /// deduplicated).
  std::vector<std::string> FiringNames() const;

  /// Rule names firing after evaluation `index` (0-based, aligned with
  /// the registry's epoch snapshots) — the console's per-epoch column.
  const std::vector<std::string>& FiringAfterEvaluation(
      std::size_t index) const;
  std::size_t NumEvaluations() const { return firing_history_.size(); }

  /// True when the named rule ever reached firing — the SLO predicate
  /// behind expect_alert / forbid_alert.
  bool EverFired(std::string_view rule_name) const;

  /// Deterministic timeline document:
  /// {"alerts": [{"epoch":…, "alert":…, "series":…, "severity":…,
  ///              "from":…, "to":…, "value":…}, …]}.
  std::string TimelineJson() const;

 private:
  struct Instance {
    AlertState state = AlertState::kInactive;
    int breach_streak = 0;
  };

  std::vector<AlertRule> rules_;
  /// Instance states keyed by (rule index, canonical series key).
  std::vector<std::map<std::string, Instance>> instances_;
  std::vector<AlertTransition> timeline_;
  /// Firing rule names after each evaluation, epoch-aligned.
  std::vector<std::vector<std::string>> firing_history_;
};

}  // namespace pm::telemetry
