#include "telemetry/telemetry.h"

#include <iterator>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace pm::telemetry {
namespace {

/// Ring capacity per shard (the flight recorder: per-shard event rings
/// and supervisor containment dumps).
constexpr std::size_t kFlightRecorderCapacity = 128;

}  // namespace

Telemetry::Telemetry(TelemetryConfig config,
                     std::vector<std::string> shard_names)
    : config_(std::move(config)),
      shard_names_(std::move(shard_names)),
      recorder_(shard_names_.size(), kFlightRecorderCapacity) {
  PM_CHECK_MSG(config_.enabled,
               "construct Telemetry only behind the enabled gate");
  PM_CHECK_MSG(!shard_names_.empty(), "telemetry needs shard names");
  // The profiler's work channel extends the watchdog's default packs —
  // work-rate recording rules and drift alerts only exist when BOTH
  // gates are armed, so the pre-profiler packs (pinned by the golden
  // byte-compares under tests/golden/) are untouched otherwise.
  if (config_.watchdog.recording_rules) {
    std::vector<RecordingRule> rules = DefaultRecordingRules();
    if (config_.profiler.work_accounting) {
      std::vector<RecordingRule> work = DefaultWorkRecordingRules();
      rules.insert(rules.end(), std::make_move_iterator(work.begin()),
                   std::make_move_iterator(work.end()));
    }
    rules_ = std::make_unique<RuleEngine>(std::move(rules));
  }
  if (config_.watchdog.alerts) {
    std::vector<AlertRule> alert_rules = DefaultAlertRules();
    if (config_.profiler.work_accounting) {
      std::vector<AlertRule> work = DefaultWorkAlertRules();
      alert_rules.insert(alert_rules.end(),
                         std::make_move_iterator(work.begin()),
                         std::make_move_iterator(work.end()));
    }
    alerts_ = std::make_unique<AlertEngine>(std::move(alert_rules));
  }
  if (config_.profiler.work_accounting || config_.profiler.wall_clock) {
    profiler_ =
        std::make_unique<PhaseProfiler>(config_.profiler, shard_names_);
  }
}

std::vector<AlertTransition> Telemetry::EvaluateWatchdog(int epoch) {
  if (rules_ != nullptr) rules_->EvaluateEpoch(registry_);
  if (alerts_ != nullptr) return alerts_->EvaluateEpoch(registry_, epoch);
  return {};
}

Span& Telemetry::EmitSpan(std::uint64_t trace, std::string name,
                          int epoch, int shard) {
  return tracer_.Emit(trace, std::move(name), epoch, shard);
}

void Telemetry::RecordEvent(std::size_t shard, int epoch,
                            std::string line) {
  FlightEvent event;
  event.epoch = epoch;
  event.line = "[e" + std::to_string(epoch) + "] " + std::move(line);
  recorder_.Record(shard, std::move(event));
}

void Telemetry::MirrorSpan(const Span& span) {
  if (span.shard < 0) return;
  FlightEvent event;
  event.epoch = span.epoch;
  event.seq = span.seq;
  event.trace = span.trace;
  event.line = span.Render();
  recorder_.Record(static_cast<std::size_t>(span.shard),
                   std::move(event));
}

std::string Telemetry::MetricsJson() const { return registry_.ToJson(); }

std::string Telemetry::PrometheusText() const {
  return registry_.ToPrometheusText();
}

std::string Telemetry::AlertTimelineJson() const {
  if (alerts_ == nullptr) return "{\n\"alerts\": [\n]\n}\n";
  return alerts_->TimelineJson();
}

std::string Telemetry::TraceJson() const {
  std::ostringstream os;
  os << "{\n\"spans\": " << tracer_.ToJson() << ",\n\"flight_dumps\": "
     << recorder_.DumpsJson() << "\n}\n";
  return os.str();
}

}  // namespace pm::telemetry
