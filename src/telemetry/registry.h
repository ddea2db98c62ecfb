// planetmarket: the deterministic metrics registry — the scrapeable core
// of the telemetry plane.
//
// Named counters, gauges and histograms, each addressed by a hierarchical
// label set {shard, kind, phase} (any subset may be empty). Storage is an
// ordered map over the canonical key rendering, so export order depends
// only on WHICH metrics were touched, never on touch order — two runs
// that record the same values emit byte-identical documents regardless of
// insertion interleaving.
//
// Two export channels with different contracts:
//
//   ToJson() / snapshots — the DETERMINISTIC channel. Fixed-precision
//     numbers, no wall-clock time, no host data; same contract as
//     scenario::ScenarioMetrics::ToJson (byte-identical across reruns
//     and thread counts). Epoch snapshots are stamped with the caller's
//     LOGICAL clock (the federation epoch), never real time.
//
//   ToPrometheusText() — the exposition format for the future exchange
//     daemon's scrape endpoint. Same deterministic values; cumulative
//     `_bucket`/`_sum`/`_count` histogram rendering.
//
// The registry holds no wall-clock data at all: epoch wall time lives in
// the phase profiler's wall channel (profiler.h), never here.
//
// Thread-safety: none, by design. The federation instruments at epoch
// barriers (single-threaded sections); concurrent shard epochs never
// touch the registry directly. This is what keeps the channel
// deterministic across FederationConfig::num_threads AND keeps the hot
// paths free of synchronization.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.h"

namespace pm::telemetry {

/// Hierarchical metric labels. Empty components are omitted from the
/// canonical rendering.
struct Labels {
  std::string shard;  // Shard name ("contested") or "" for planet-wide.
  std::string kind;   // Resource kind ("cpu") or "" when not per-kind.
  std::string phase;  // Pipeline phase ("route", "settle", policy name).
};

/// Canonical key rendering: `name{shard="…",kind="…",phase="…"}` with
/// empty labels omitted (bare `name` when all are empty). This string is
/// the registry's storage key and the JSON/Prometheus identity.
std::string RenderKey(std::string_view name, const Labels& labels);

/// The bare metric name of a canonical key (`pm_x{shard="a"}` → `pm_x`).
std::string_view KeyName(const std::string& key);

/// The inverse of RenderKey's label block: parses a canonical key's
/// labels back out (escape-aware). The rule engine and the operator
/// console use this to regroup series the registry stores flat.
Labels KeyLabels(const std::string& key);

/// The registry. See the header comment for the channel contracts.
class MetricsRegistry {
 public:
  /// Adds `delta` to a (monotone) counter, creating it at zero.
  void AddCounter(std::string_view name, const Labels& labels,
                  double delta);

  /// Sets a gauge to `value`, creating it.
  void SetGauge(std::string_view name, const Labels& labels, double value);

  /// Records `value` into the named histogram, creating it with the
  /// given shape on first touch. Every label set of one name must share
  /// one shape (CHECK-enforced) so cross-label merges are always valid.
  void Observe(std::string_view name, const Labels& labels, double value,
               double lo, double hi, std::size_t bins);

  /// Sets a gauge under an already-canonical key — the recording-rule
  /// engine's write path: a derived series reuses its input's rendered
  /// label block verbatim, so re-parsing it into a Labels just to
  /// re-render it would be wasted motion. `key` must come from RenderKey
  /// (or a RenderKey result with a `derived:` prefix).
  void SetGaugeByKey(std::string key, double value);

  /// Captures the current counter and gauge values as epoch `epoch`'s
  /// snapshot — the logical-clock series of the JSON document.
  void SnapshotEpoch(int epoch);

  // ------------------------------------------------------- introspection --
  double CounterValue(std::string_view name, const Labels& labels) const;
  double GaugeValue(std::string_view name, const Labels& labels) const;
  /// Null when absent.
  const stats::Histogram* FindHistogram(std::string_view name,
                                        const Labels& labels) const;
  std::size_t NumCounters() const { return counters_.size(); }
  std::size_t NumEpochs() const { return epochs_.size(); }

  /// Key-ordered read access to the live scalar maps — the watchdog
  /// layer (rules, alerts, console) iterates these to find every label
  /// set of a metric name.
  const std::map<std::string, double>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }

  /// One epoch's captured counter/gauge values (the series channel).
  struct EpochSnapshot {
    int epoch = 0;
    std::vector<std::pair<std::string, double>> counters;  // (key, value)
    std::vector<std::pair<std::string, double>> gauges;
  };
  const std::vector<EpochSnapshot>& Snapshots() const { return epochs_; }

  // ------------------------------------------------------------- exports --
  /// Deterministic JSON document (counters, gauges, histograms with
  /// p50/p90/p99 + cross-label merges, the epoch snapshot series).
  std::string ToJson() const;

  /// Prometheus-style text exposition (`# TYPE` lines, label sets,
  /// cumulative histogram buckets). Deterministic values; intended for
  /// the exchange daemon's scrape endpoint.
  std::string ToPrometheusText() const;

 private:
  struct HistEntry {
    stats::Histogram hist;
    std::string name;  // Bare metric name (for cross-label merging).
  };

  std::map<std::string, double> counters_;    // key → value
  std::map<std::string, double> gauges_;      // key → value
  std::map<std::string, HistEntry> hists_;    // key → histogram
  std::vector<EpochSnapshot> epochs_;
};

}  // namespace pm::telemetry
