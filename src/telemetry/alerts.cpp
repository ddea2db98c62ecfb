#include "telemetry/alerts.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/table.h"

namespace pm::telemetry {
std::string_view ToString(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo: return "info";
    case AlertSeverity::kWarning: return "warning";
    case AlertSeverity::kCritical: return "critical";
  }
  return "?";
}

std::string_view ToString(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

std::vector<AlertRule> DefaultAlertRules() {
  std::vector<AlertRule> rules;
  // Containment: the supervisor contained at least one shard failure
  // this epoch. Fires at the crash epoch, resolves once the planet goes
  // an epoch without a containment.
  rules.push_back({"containment", "derived:failed_shards_rate", 0.0, 1,
                   AlertSeverity::kCritical});
  // Quarantine: at least one shard sat this epoch out.
  rules.push_back({"quarantine", "derived:quarantined_shards_rate", 0.0,
                   1, AlertSeverity::kWarning});
  // Refund storm: more than half of a shard's awarded dollars came back
  // as refunds, two epochs running (one bad epoch is placement noise).
  rules.push_back({"refund-storm", "derived:refund_rate", 0.5, 2,
                   AlertSeverity::kWarning});
  // Spread blowout: a kind's cross-shard relative price spread exceeded
  // 100% two epochs running — arbitrage/rebalancing is not keeping the
  // planet coupled.
  rules.push_back({"spread-blowout", "derived:price_spread", 1.0, 2,
                   AlertSeverity::kWarning});
  // Treasury conservation drift: the planet ledger stopped summing to
  // minted − burned. Never expected to fire; scenarios forbid it.
  rules.push_back({"treasury-conservation-drift",
                   "fed_treasury_conservation_residual_dollars", 1e-6, 1,
                   AlertSeverity::kCritical});
  return rules;
}

std::vector<AlertRule> DefaultWorkAlertRules() {
  std::vector<AlertRule> rules;
  // Work drift: the same shard's per-epoch logical work jumped by the
  // given factor two epochs running. One hot epoch is workload noise
  // (a flash crowd legitimately doubles demand); a sustained multiple
  // with no matching workload change is an engine regression —
  // incremental collections degenerating to full sweeps.
  rules.push_back({"work-dot-block-drift", "derived:work_dot_blocks_drift",
                   2.0, 2, AlertSeverity::kWarning});
  rules.push_back({"work-dirty-bidder-drift",
                   "derived:work_dirty_bidders_drift", 3.0, 2,
                   AlertSeverity::kWarning});
  // Bisection storm: probes per auction round blew past anything the
  // per-round peek + one final search can produce.
  rules.push_back({"work-bisection-storm", "derived:work_probes_per_round",
                   30.0, 2, AlertSeverity::kWarning});
  // Wire-retry storm: the lossy wire is burning retries at a rate that
  // dwarfs the configured fault plan.
  rules.push_back({"work-wire-retry-storm", "derived:work_wire_retry_rate",
                   50.0, 2, AlertSeverity::kWarning});
  return rules;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)), instances_(rules_.size()) {
  for (const AlertRule& rule : rules_) {
    PM_CHECK_MSG(!rule.name.empty() && !rule.metric.empty(),
                 "alert rule needs a name and a metric");
  }
}

std::vector<AlertTransition> AlertEngine::EvaluateEpoch(
    const MetricsRegistry& registry, int epoch) {
  std::vector<AlertTransition> fresh;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    std::map<std::string, Instance>& states = instances_[r];

    // This epoch's breach observations, keyed by canonical series key.
    // Label sets are discovered from the registry (counters first so an
    // equally-named gauge overwrites — gauges win).
    std::map<std::string, std::pair<bool, double>> observed;
    const auto scan = [&](const std::map<std::string, double>& values) {
      for (const auto& [key, value] : values) {
        if (KeyName(key) != rule.metric) continue;
        observed[key] = {value > rule.threshold, value};
      }
    };
    scan(registry.counters());
    scan(registry.gauges());

    // Instances with no observation this epoch (series that vanished)
    // read as cleared, so a firing alert on a retired series still
    // resolves instead of firing forever.
    for (auto& [key, instance] : states) {
      observed.emplace(key, std::make_pair(false, 0.0));
    }

    for (const auto& [key, obs] : observed) {
      const auto [breach, value] = obs;
      Instance& inst = states[key];
      const AlertState before = inst.state;
      if (breach) {
        ++inst.breach_streak;
        if (inst.breach_streak >= rule.for_epochs) {
          inst.state = AlertState::kFiring;
        } else if (inst.state != AlertState::kFiring) {
          inst.state = AlertState::kPending;
        }
      } else {
        inst.breach_streak = 0;
        inst.state = before == AlertState::kFiring ? AlertState::kResolved
                                                   : AlertState::kInactive;
      }
      if (inst.state != before) {
        AlertTransition t;
        t.epoch = epoch;
        t.rule = rule.name;
        t.series = key;
        t.from = before;
        t.to = inst.state;
        t.severity = rule.severity;
        t.value = value;
        fresh.push_back(t);
      }
    }
  }
  timeline_.insert(timeline_.end(), fresh.begin(), fresh.end());
  firing_history_.push_back(FiringNames());
  return fresh;
}

std::vector<std::string> AlertEngine::FiringNames() const {
  std::vector<std::string> names;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    for (const auto& [key, inst] : instances_[r]) {
      if (inst.state == AlertState::kFiring) {
        names.push_back(rules_[r].name);
        break;
      }
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<std::string>& AlertEngine::FiringAfterEvaluation(
    std::size_t index) const {
  PM_CHECK(index < firing_history_.size());
  return firing_history_[index];
}

bool AlertEngine::EverFired(std::string_view rule_name) const {
  for (const AlertTransition& t : timeline_) {
    if (t.to == AlertState::kFiring && t.rule == rule_name) return true;
  }
  return false;
}

std::string AlertEngine::TimelineJson() const {
  std::ostringstream os;
  os << "{\n\"alerts\": [\n";
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const AlertTransition& t = timeline_[i];
    os << "  {\"epoch\": " << t.epoch << ", \"alert\": "
       << JsonQuote(t.rule) << ", \"series\": " << JsonQuote(t.series)
       << ", \"severity\": \"" << ToString(t.severity) << "\", \"from\": \""
       << ToString(t.from) << "\", \"to\": \"" << ToString(t.to)
       << "\", \"value\": " << JsonNum(t.value) << "}"
       << (i + 1 < timeline_.size() ? "," : "") << "\n";
  }
  os << "]\n}\n";
  return os.str();
}

}  // namespace pm::telemetry
