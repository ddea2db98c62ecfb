#include "telemetry/rules.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pm::telemetry {
namespace {

/// The `{...}` label block of a canonical key ("" when unlabeled).
std::string KeySuffix(const std::string& key) {
  const std::size_t brace = key.find('{');
  return brace == std::string::npos ? std::string() : key.substr(brace);
}

}  // namespace

std::vector<RecordingRule> DefaultRecordingRules() {
  using Kind = RecordingRule::Kind;
  std::vector<RecordingRule> rules;
  // Per-epoch containment activity: how many shard failures, quarantined
  // epochs and checkpoint restores landed THIS epoch (the raw counters
  // only accumulate).
  rules.push_back({Kind::kCounterRate, "failed_shards_rate",
                   "fed_supervisor_failed_shards", ""});
  rules.push_back({Kind::kCounterRate, "quarantined_shards_rate",
                   "fed_supervisor_quarantined_epochs", ""});
  rules.push_back({Kind::kCounterRate, "restored_checkpoints_rate",
                   "fed_supervisor_restored_checkpoints", ""});
  // Health flaps: per-shard health-machine transitions this epoch.
  rules.push_back({Kind::kCounterRate, "health_flaps",
                   "fed_health_transitions", ""});
  // Refund storm: the dollar fraction of this epoch's awards that came
  // back as refunds, per shard (0 on a no-award epoch).
  rules.push_back({Kind::kCounterRate, "refund_dollars_rate",
                   "fed_refund_dollars", ""});
  rules.push_back({Kind::kRatio, "refund_rate", "fed_refund_dollars",
                   "fed_awarded_dollars"});
  // Cross-shard price dislocation, per resource kind — finer-grained
  // than the planet-wide fed_clearing_spread mean.
  rules.push_back({Kind::kSpreadByKind, "price_spread",
                   "fed_clearing_price_dollars", ""});
  return rules;
}

std::vector<RecordingRule> DefaultWorkRecordingRules() {
  using Kind = RecordingRule::Kind;
  std::vector<RecordingRule> rules;
  // Per-epoch logical work rates: how many dot blocks, dirty bidders
  // and wire retries landed THIS epoch, per shard.
  rules.push_back({Kind::kCounterRate, "work_dot_blocks_rate",
                   "fed_work_dot_blocks", ""});
  rules.push_back({Kind::kCounterRate, "work_dirty_bidders_rate",
                   "fed_work_dirty_bidders", ""});
  rules.push_back({Kind::kCounterRate, "work_wire_retry_rate",
                   "fed_work_wire_retries", ""});
  // Epoch-over-epoch drift of the dominant work drivers. A sustained
  // drift factor ≥ 2 means the same workload suddenly costs a multiple
  // of last epoch's logical work — the deterministic signature of an
  // incremental-fallback storm, visible even on a host too noisy for
  // wall-clock regression detection.
  rules.push_back({Kind::kDeltaDrift, "work_dot_blocks_drift",
                   "fed_work_dot_blocks", ""});
  rules.push_back({Kind::kDeltaDrift, "work_dirty_bidders_drift",
                   "fed_work_dirty_bidders", ""});
  rules.push_back({Kind::kDeltaDrift, "work_probe_drift",
                   "fed_bisection_probes", ""});
  // Bisection probes per auction round: a blowout means the per-round
  // demand peek degenerated into full searches.
  rules.push_back({Kind::kRatio, "work_probes_per_round",
                   "fed_bisection_probes", "fed_auction_rounds"});
  return rules;
}

RuleEngine::RuleEngine(std::vector<RecordingRule> rules)
    : rules_(std::move(rules)) {
  for (const RecordingRule& rule : rules_) {
    PM_CHECK_MSG(!rule.output.empty() && !rule.source.empty(),
                 "recording rule needs an output and a source");
    PM_CHECK_MSG(rule.kind != RecordingRule::Kind::kRatio ||
                     !rule.denominator.empty(),
                 "ratio rule '" << rule.output << "' needs a denominator");
  }
}

std::map<std::string, double> RuleEngine::CounterDeltas(
    const MetricsRegistry& registry, const std::string& name) {
  std::map<std::string, double> deltas;
  for (const auto& [key, value] : registry.counters()) {
    if (KeyName(key) != name) continue;
    double& baseline = baseline_[key];
    deltas.emplace(key, value - baseline);
    baseline = value;
  }
  return deltas;
}

void RuleEngine::EvaluateEpoch(MetricsRegistry& registry) {
  for (const RecordingRule& rule : rules_) {
    switch (rule.kind) {
      case RecordingRule::Kind::kCounterRate: {
        for (const auto& [key, delta] : CounterDeltas(registry,
                                                      rule.source)) {
          registry.SetGaugeByKey("derived:" + rule.output + KeySuffix(key),
                                 delta);
        }
        break;
      }
      case RecordingRule::Kind::kRatio: {
        // Deltas update both baselines even when one side is missing, so
        // a denominator that first appears mid-run differences correctly
        // from its first epoch.
        const std::map<std::string, double> num =
            CounterDeltas(registry, rule.source);
        const std::map<std::string, double> den =
            CounterDeltas(registry, rule.denominator);
        for (const auto& [key, delta] : num) {
          const std::string suffix = KeySuffix(key);
          const auto it = den.find(rule.denominator + suffix);
          const double below = it == den.end() ? 0.0 : it->second;
          registry.SetGaugeByKey(
              "derived:" + rule.output + suffix,
              below > 0.0 ? delta / below : 0.0);
        }
        break;
      }
      case RecordingRule::Kind::kSpreadByKind: {
        // Group the source gauge's label sets by kind; spread is the
        // relative max-over-min across the shards carrying each kind.
        std::map<std::string, std::pair<double, double>> by_kind;
        for (const auto& [key, value] : registry.gauges()) {
          if (KeyName(key) != rule.source) continue;
          const std::string kind = KeyLabels(key).kind;
          const auto it = by_kind.find(kind);
          if (it == by_kind.end()) {
            by_kind.emplace(kind, std::make_pair(value, value));
          } else {
            it->second.first = std::min(it->second.first, value);
            it->second.second = std::max(it->second.second, value);
          }
        }
        for (const auto& [kind, minmax] : by_kind) {
          Labels labels;
          labels.kind = kind;
          const double spread = (minmax.second - minmax.first) /
                                std::max(1e-9, minmax.first);
          registry.SetGaugeByKey(
              RenderKey("derived:" + rule.output, labels), spread);
        }
        break;
      }
      case RecordingRule::Kind::kDeltaDrift: {
        for (const auto& [key, value] : registry.counters()) {
          if (KeyName(key) != rule.source) continue;
          double& baseline = drift_baseline_[key];
          double& prev_delta = drift_prev_delta_[key];
          const double delta = value - baseline;
          baseline = value;
          registry.SetGaugeByKey(
              "derived:" + rule.output + KeySuffix(key),
              prev_delta > 0.0 ? delta / prev_delta : 0.0);
          prev_delta = delta;
        }
        break;
      }
    }
  }
}

}  // namespace pm::telemetry
