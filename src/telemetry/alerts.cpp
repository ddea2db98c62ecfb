#include "telemetry/alerts.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/table.h"

namespace pm::telemetry {
namespace {

std::string QuoteJson(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double value) {
  if (value == 0.0) return FormatF(0.0, 6);
  return FormatF(value, 6);
}

}  // namespace

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
  using Kind = AlertRule::Kind;
  std::vector<AlertRule> rules;
  // Containment: the supervisor contained at least one shard failure
  // this epoch. Fires at the crash epoch, resolves once the planet goes
  // an epoch without a containment.
  rules.push_back({"containment", Kind::kAbove,
                   "derived:failed_shards_rate", {}, 0.0, 1,
                   AlertSeverity::kCritical});
  // Quarantine: at least one shard sat this epoch out.
  rules.push_back({"quarantine", Kind::kAbove,
                   "derived:quarantined_shards_rate", {}, 0.0, 1,
                   AlertSeverity::kWarning});
  // Refund storm: more than half of a shard's awarded dollars came back
  // as refunds, two epochs running (one bad epoch is placement noise).
  rules.push_back({"refund-storm", Kind::kAbove, "derived:refund_rate",
                   {}, 0.5, 2, AlertSeverity::kWarning});
  // Spread blowout: a kind's cross-shard relative price spread exceeded
  // 100% two epochs running — arbitrage/rebalancing is not keeping the
  // planet coupled.
  rules.push_back({"spread-blowout", Kind::kAbove, "derived:price_spread",
                   {}, 1.0, 2, AlertSeverity::kWarning});
  // Treasury conservation drift: the planet ledger stopped summing to
  // minted − burned. Never expected to fire; scenarios forbid it.
  rules.push_back({"treasury-conservation-drift", Kind::kAbove,
                   "fed_treasury_conservation_residual_dollars", {}, 1e-6,
                   1, AlertSeverity::kCritical});
  return rules;
}

std::vector<AlertRule> DefaultWorkAlertRules() {
  using Kind = AlertRule::Kind;
  std::vector<AlertRule> rules;
  // Work drift: the same shard's per-epoch logical work jumped by the
  // given factor two epochs running. One hot epoch is workload noise
  // (a flash crowd legitimately doubles demand); a sustained multiple
  // with no matching workload change is an engine regression —
  // incremental collections degenerating to full sweeps.
  rules.push_back({"work-dot-block-drift", Kind::kAbove,
                   "derived:work_dot_blocks_drift", {}, 2.0, 2,
                   AlertSeverity::kWarning});
  rules.push_back({"work-dirty-bidder-drift", Kind::kAbove,
                   "derived:work_dirty_bidders_drift", {}, 3.0, 2,
                   AlertSeverity::kWarning});
  // Bisection storm: probes per auction round blew past anything the
  // per-round peek + one final search can produce.
  rules.push_back({"work-bisection-storm", Kind::kAbove,
                   "derived:work_probes_per_round", {}, 30.0, 2,
                   AlertSeverity::kWarning});
  // Wire-retry storm: the lossy wire is burning retries at a rate that
  // dwarfs the configured fault plan.
  rules.push_back({"work-wire-retry-storm", Kind::kAbove,
                   "derived:work_wire_retry_rate", {}, 50.0, 2,
                   AlertSeverity::kWarning});
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
    // Threshold rules discover label sets from the registry (counters
    // first so an equally-named gauge overwrites — gauges win); absence
    // rules watch one fixed key.
    std::map<std::string, std::pair<bool, double>> observed;
    if (rule.kind == AlertRule::Kind::kAbsent) {
      observed[RenderKey(rule.metric, rule.labels)] = {
          !registry.HasSeries(rule.metric, rule.labels), 0.0};
    } else {
      const auto scan = [&](const std::map<std::string, double>& values) {
        for (const auto& [key, value] : values) {
          if (KeyName(key) != rule.metric) continue;
          const bool breach = rule.kind == AlertRule::Kind::kAbove
                                  ? value > rule.threshold
                                  : value < rule.threshold;
          observed[key] = {breach, value};
        }
      };
      scan(registry.counters());
      scan(registry.gauges());
    }

    // Instances with no observation this epoch (threshold series that
    // vanished) read as cleared, so a firing alert on a retired series
    // still resolves instead of firing forever.
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
       << QuoteJson(t.rule) << ", \"series\": " << QuoteJson(t.series)
       << ", \"severity\": \"" << ToString(t.severity) << "\", \"from\": \""
       << ToString(t.from) << "\", \"to\": \"" << ToString(t.to)
       << "\", \"value\": " << Num(t.value) << "}"
       << (i + 1 < timeline_.size() ? "," : "") << "\n";
  }
  os << "]\n}\n";
  return os.str();
}

}  // namespace pm::telemetry
