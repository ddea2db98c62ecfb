// Tests for the watchdog plane (telemetry/rules.h, telemetry/alerts.h,
// telemetry/console.h) and its federation/scenario wiring.
//
// The contracts under test:
//   1. recording rules — per-epoch counter rates, zero-safe ratios and
//      per-kind spreads land in the registry under `derived:` and ride
//      the epoch snapshots;
//   2. alert lifecycle — inactive → pending → firing → resolved in
//      logical epoch time, with for_epochs hysteresis and absence rules;
//   3. off means off — telemetry-on-watchdog-off emits no derived
//      series, no watchdog gauges, and identical scenario outcomes;
//   4. SLO assertions — expect_alert/forbid_alert fail scenarios on
//      missing AND on spurious alerts (both directions);
//   5. golden contract — the outage-during-price-war metrics and
//      alert-timeline documents are byte-stable against tests/golden/;
//   6. flight recorder — ring overwrites are counted and surfaced in
//      containment dumps; alert transitions are mirrored into the rings.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "federation/federated_exchange.h"
#include "federation/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/alerts.h"
#include "telemetry/console.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"
#include "telemetry/rules.h"
#include "telemetry/telemetry.h"

namespace pm::telemetry {
namespace {

// ------------------------------------------------------ recording rules --

TEST(RuleEngineTest, CounterRateDifferencesPerLabelSet) {
  MetricsRegistry reg;
  RuleEngine engine({{RecordingRule::Kind::kCounterRate, "fails_rate",
                      "fails", ""}});
  reg.AddCounter("fails", Labels{"a", "", ""}, 2.0);
  reg.AddCounter("fails", Labels{"b", "", ""}, 5.0);
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:fails_rate", Labels{"a", "", ""}), 2.0);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:fails_rate", Labels{"b", "", ""}), 5.0);

  // Next epoch: only the delta shows, not the cumulative value.
  reg.AddCounter("fails", Labels{"a", "", ""}, 1.0);
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:fails_rate", Labels{"a", "", ""}), 1.0);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:fails_rate", Labels{"b", "", ""}), 0.0);
}

TEST(RuleEngineTest, RatioIsZeroOnZeroDenominator) {
  MetricsRegistry reg;
  RuleEngine engine(
      {{RecordingRule::Kind::kRatio, "refund_rate", "refunds", "awards"}});
  reg.AddCounter("refunds", Labels{"a", "", ""}, 3.0);
  reg.AddCounter("awards", Labels{"a", "", ""}, 12.0);
  reg.AddCounter("refunds", Labels{"b", "", ""}, 7.0);  // No awards at all.
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:refund_rate", Labels{"a", "", ""}), 0.25);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:refund_rate", Labels{"b", "", ""}), 0.0);

  // A quiet epoch (no new awards) is rate 0, not NaN.
  reg.AddCounter("refunds", Labels{"a", "", ""}, 1.0);
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:refund_rate", Labels{"a", "", ""}), 0.0);
}

TEST(RuleEngineTest, SpreadGroupsByKindAcrossShards) {
  MetricsRegistry reg;
  RuleEngine engine({{RecordingRule::Kind::kSpreadByKind, "spread",
                      "price", ""}});
  reg.SetGauge("price", Labels{"a", "cpu", ""}, 2.0);
  reg.SetGauge("price", Labels{"b", "cpu", ""}, 6.0);
  reg.SetGauge("price", Labels{"a", "ram", ""}, 1.0);  // Single shard.
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:spread", Labels{"", "cpu", ""}), 2.0);
  EXPECT_DOUBLE_EQ(
      reg.GaugeValue("derived:spread", Labels{"", "ram", ""}), 0.0);
}

TEST(RuleEngineTest, DerivedSeriesRideTheExports) {
  MetricsRegistry reg;
  RuleEngine engine({{RecordingRule::Kind::kCounterRate, "rate", "n", ""}});
  reg.AddCounter("n", Labels{}, 4.0);
  engine.EvaluateEpoch(reg);
  reg.SnapshotEpoch(0);
  EXPECT_NE(reg.ToJson().find("derived:rate"), std::string::npos);
  // ':' is legal in Prometheus metric names (the recording-rule
  // convention); the exposition carries the derived gauge too.
  EXPECT_NE(reg.ToPrometheusText().find("# TYPE derived:rate gauge"),
            std::string::npos);
  ASSERT_EQ(reg.Snapshots().size(), 1u);
  bool in_snapshot = false;
  for (const auto& [key, value] : reg.Snapshots()[0].gauges) {
    in_snapshot = in_snapshot || key == "derived:rate";
  }
  EXPECT_TRUE(in_snapshot);
}

// -------------------------------------------------------- alert engine --

AlertRule ThresholdRule(const std::string& name, const std::string& metric,
                        double threshold, int for_epochs) {
  AlertRule rule;
  rule.name = name;
  rule.metric = metric;
  rule.threshold = threshold;
  rule.for_epochs = for_epochs;
  rule.severity = AlertSeverity::kCritical;
  return rule;
}

TEST(AlertEngineTest, ImmediateRuleWalksFullLifecycle) {
  MetricsRegistry reg;
  AlertEngine engine({ThresholdRule("hot", "temp", 10.0, 1)});

  reg.SetGauge("temp", Labels{}, 5.0);
  EXPECT_TRUE(engine.EvaluateEpoch(reg, 0).empty());  // inactive

  reg.SetGauge("temp", Labels{}, 25.0);
  auto t = engine.EvaluateEpoch(reg, 1);  // inactive -> firing
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].from, AlertState::kInactive);
  EXPECT_EQ(t[0].to, AlertState::kFiring);
  EXPECT_EQ(t[0].epoch, 1);
  EXPECT_DOUBLE_EQ(t[0].value, 25.0);
  EXPECT_EQ(engine.FiringNames(), std::vector<std::string>{"hot"});

  reg.SetGauge("temp", Labels{}, 25.0);
  EXPECT_TRUE(engine.EvaluateEpoch(reg, 2).empty());  // still firing

  reg.SetGauge("temp", Labels{}, 5.0);
  t = engine.EvaluateEpoch(reg, 3);  // firing -> resolved
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, AlertState::kResolved);
  EXPECT_TRUE(engine.FiringNames().empty());

  t = engine.EvaluateEpoch(reg, 4);  // resolved -> inactive
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, AlertState::kInactive);
  EXPECT_TRUE(engine.EverFired("hot"));
  EXPECT_FALSE(engine.EverFired("cold"));
}

TEST(AlertEngineTest, HysteresisHoldsThroughPending) {
  MetricsRegistry reg;
  AlertEngine engine({ThresholdRule("hot", "temp", 10.0, 3)});

  // Two breach epochs, then a clear: pending never becomes firing.
  reg.SetGauge("temp", Labels{}, 20.0);
  auto t = engine.EvaluateEpoch(reg, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, AlertState::kPending);
  engine.EvaluateEpoch(reg, 1);
  reg.SetGauge("temp", Labels{}, 0.0);
  t = engine.EvaluateEpoch(reg, 2);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].to, AlertState::kInactive);
  EXPECT_FALSE(engine.EverFired("hot"));

  // Three consecutive breaches: the streak restarts and fires.
  reg.SetGauge("temp", Labels{}, 20.0);
  engine.EvaluateEpoch(reg, 3);
  engine.EvaluateEpoch(reg, 4);
  t = engine.EvaluateEpoch(reg, 5);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].from, AlertState::kPending);
  EXPECT_EQ(t[0].to, AlertState::kFiring);
  EXPECT_TRUE(engine.EverFired("hot"));
}

TEST(AlertEngineTest, BelowRuleAndPerLabelInstances) {
  MetricsRegistry reg;
  AlertEngine engine({ThresholdRule("crowded", "winners", 2.0, 1)});

  // Two shards, one over the threshold: exactly one instance fires.
  reg.SetGauge("winners", Labels{"a", "", ""}, 9.0);
  reg.SetGauge("winners", Labels{"b", "", ""}, 0.0);
  const auto t = engine.EvaluateEpoch(reg, 0);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].series, "winners{shard=\"a\"}");
  EXPECT_EQ(t[0].to, AlertState::kFiring);
}

TEST(AlertEngineTest, TimelineJsonIsDeterministic) {
  const auto run = [] {
    MetricsRegistry reg;
    AlertEngine engine({ThresholdRule("hot", "temp", 1.0, 1)});
    reg.SetGauge("temp", Labels{}, 2.0);
    engine.EvaluateEpoch(reg, 0);
    reg.SetGauge("temp", Labels{}, 0.0);
    engine.EvaluateEpoch(reg, 1);
    return engine.TimelineJson();
  };
  const std::string once = run();
  EXPECT_EQ(once, run());
  EXPECT_NE(once.find("\"alert\": \"hot\""), std::string::npos);
  EXPECT_NE(once.find("\"severity\": \"critical\""), std::string::npos);
}

// --------------------------------------------------- federation wiring --

agents::WorkloadConfig SmallWorkload() {
  agents::WorkloadConfig config;
  config.num_clusters = 4;
  config.num_teams = 12;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  return config;
}

std::vector<federation::ShardSpec> TwoShards() {
  std::vector<federation::ShardSpec> specs;
  for (const char* name : {"alpha", "beta"}) {
    federation::ShardSpec spec;
    spec.name = name;
    spec.workload = SmallWorkload();
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    specs.push_back(std::move(spec));
  }
  return specs;
}

federation::FederationConfig WatchdogConfigOn() {
  federation::FederationConfig config;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;
  config.telemetry.enabled = true;
  config.telemetry.watchdog.recording_rules = true;
  config.telemetry.watchdog.alerts = true;
  return config;
}

TEST(WatchdogWiringTest, ContainmentAlertReachesReportAndRings) {
  federation::FederatedExchange fed(TwoShards(), WatchdogConfigOn());
  fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
  fed.InjectShardFailure(0);
  const federation::FederationReport report = fed.RunEpoch();

  ASSERT_TRUE(report.alerts.enabled);
  ASSERT_FALSE(report.alerts.firing.empty());
  EXPECT_EQ(report.alerts.firing[0], "containment");
  EXPECT_GT(report.alerts.transitions, 0u);
  EXPECT_NE(RenderFederationSummary(report).find("firing: containment"),
            std::string::npos);

  // The planet-scope transition was mirrored into EVERY shard's ring.
  const Telemetry* telemetry = fed.telemetry();
  ASSERT_NE(telemetry, nullptr);
  for (std::size_t k = 0; k < 2; ++k) {
    bool mirrored = false;
    for (const FlightEvent& event : telemetry->recorder().Ring(k)) {
      mirrored = mirrored ||
                 event.line.find("alert containment") != std::string::npos;
    }
    EXPECT_TRUE(mirrored) << "ring " << k;
  }
}

TEST(WatchdogWiringTest, WatchdogOffEmitsNoDerivedOrWatchdogSeries) {
  federation::FederationConfig config = WatchdogConfigOn();
  config.telemetry.watchdog = WatchdogConfig{};  // Both gates off.
  federation::FederatedExchange fed(TwoShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
  fed.RunEpoch();
  const std::string json = fed.telemetry()->MetricsJson();
  EXPECT_EQ(json.find("derived:"), std::string::npos);
  EXPECT_EQ(json.find("fed_shard_health"), std::string::npos);
  EXPECT_EQ(json.find("fed_awarded_dollars"), std::string::npos);
  EXPECT_EQ(json.find("fed_clearing_price_dollars"), std::string::npos);
  EXPECT_EQ(json.find("fed_health_transitions"), std::string::npos);
  EXPECT_EQ(json.find("fed_treasury_conservation_residual_dollars"),
            std::string::npos);
  EXPECT_EQ(fed.telemetry()->AlertTimelineJson(),
            "{\n\"alerts\": [\n]\n}\n");
}

TEST(WatchdogWiringTest, WatchdogDoesNotPerturbScenarioOutcomes) {
  // The watchdog only reads the registry and writes derived series back;
  // market outcomes must be bit-identical with it off.
  const auto run = [](bool watchdog) {
    scenario::ScenarioSpec spec =
        scenario::FindScenario("outage-during-price-war");
    spec.slo.expect_alerts.clear();  // The off arm has no engine to read.
    spec.slo.forbid_alerts.clear();
    spec.federation.telemetry.watchdog.recording_rules = watchdog;
    spec.federation.telemetry.watchdog.alerts = watchdog;
    scenario::ScenarioRunner runner(std::move(spec),
                                    scenario::RunnerConfig{});
    return runner.Run().ToJson();
  };
  EXPECT_EQ(run(false), run(true));
}

// ------------------------------------------------------ SLO assertions --

TEST(AlertSloTest, MissingExpectedAlertFailsTheScenario) {
  scenario::ScenarioSpec spec =
      scenario::FindScenario("outage-during-price-war");
  // refund-storm never fires here (refunds are a sliver of awards).
  spec.slo.expect_alerts = {"refund-storm"};
  spec.slo.forbid_alerts.clear();
  scenario::ScenarioRunner runner(std::move(spec),
                                  scenario::RunnerConfig{});
  const scenario::ScenarioMetrics metrics = runner.Run();
  ASSERT_TRUE(metrics.slos_evaluated);
  EXPECT_FALSE(metrics.slo_pass);
  bool saw = false;
  for (const scenario::SloResult& slo : metrics.slos) {
    if (slo.name == "alert-fired:refund-storm") {
      saw = true;
      EXPECT_FALSE(slo.pass);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(AlertSloTest, SpuriousForbiddenAlertFailsTheScenario) {
  scenario::ScenarioSpec spec =
      scenario::FindScenario("outage-during-price-war");
  spec.slo.expect_alerts.clear();
  spec.slo.forbid_alerts = {"containment"};  // It WILL fire.
  scenario::ScenarioRunner runner(std::move(spec),
                                  scenario::RunnerConfig{});
  const scenario::ScenarioMetrics metrics = runner.Run();
  ASSERT_TRUE(metrics.slos_evaluated);
  EXPECT_FALSE(metrics.slo_pass);
  bool saw = false;
  for (const scenario::SloResult& slo : metrics.slos) {
    if (slo.name == "alert-silent:containment") {
      saw = true;
      EXPECT_FALSE(slo.pass);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(AlertSloTest, AssertingWithoutTheEngineFailsLoudly) {
  scenario::ScenarioSpec spec =
      scenario::FindScenario("outage-during-price-war");
  spec.federation.telemetry.watchdog.alerts = false;  // Spec bug.
  scenario::ScenarioRunner runner(std::move(spec),
                                  scenario::RunnerConfig{});
  const scenario::ScenarioMetrics metrics = runner.Run();
  ASSERT_TRUE(metrics.slos_evaluated);
  EXPECT_FALSE(metrics.slo_pass);
  bool saw = false;
  for (const scenario::SloResult& slo : metrics.slos) {
    saw = saw || (slo.name == "alert-engine-armed" && !slo.pass);
  }
  EXPECT_TRUE(saw);
}

// ------------------------------------------------------ golden contract --

std::string ReadGolden(const std::string& name) {
  const std::string path =
      std::string(PM_REPO_ROOT) + "/tests/golden/" + name;
  std::ifstream file(path);
  PM_CHECK_MSG(file.good(), "missing golden file " << path);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

// After an intended behaviour change, regenerate both golden files from
// the build directory with
//   ./example_scenario_runner --scenario outage-during-price-war --quiet \
//       --metrics-out ../tests/golden/outage-during-price-war.metrics.json \
//       --alerts-out ../tests/golden/outage-during-price-war.alerts.json
TEST(WatchdogGoldenTest, OutageScenarioDocumentsAreByteStable) {
  // The exact artifacts the weekly CI run uploads, enforced on every
  // push: default seed, default epochs, any thread count.
  scenario::ScenarioRunner runner(
      scenario::FindScenario("outage-during-price-war"),
      scenario::RunnerConfig{});
  const scenario::ScenarioMetrics metrics = runner.Run();
  EXPECT_TRUE(metrics.slo_pass);
  const Telemetry* telemetry = runner.exchange().telemetry();
  ASSERT_NE(telemetry, nullptr);
  EXPECT_EQ(telemetry->MetricsJson(),
            ReadGolden("outage-during-price-war.metrics.json"));
  EXPECT_EQ(telemetry->AlertTimelineJson(),
            ReadGolden("outage-during-price-war.alerts.json"));
}

// ------------------------------------------------------ flight recorder --

TEST(FlightRecorderDropTest, CountsRingOverwritesPerShard) {
  FlightRecorder recorder(/*num_shards=*/2, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    recorder.Record(0, FlightEvent{0, 0, 0, "e" + std::to_string(i)});
  }
  recorder.Record(1, FlightEvent{0, 0, 0, "only"});
  EXPECT_EQ(recorder.Dropped(0), 3u);
  EXPECT_EQ(recorder.Dropped(1), 0u);

  const FlightDump& dump =
      recorder.DumpShard(0, "alpha", 0, "boom", "healthy -> degraded", {});
  EXPECT_EQ(dump.dropped_events, 3u);
  EXPECT_NE(dump.text.find("3 older events dropped"), std::string::npos);
  EXPECT_NE(recorder.DumpsJson().find("\"dropped_events\": 3"),
            std::string::npos);
}

// ------------------------------------------------------------- console --

TEST(ConsoleTest, RendersHealthAlertsAndPricesDeterministically) {
  const auto run = [](std::size_t threads) {
    scenario::RunnerConfig config;
    config.num_threads = threads;
    scenario::ScenarioRunner runner(
        scenario::FindScenario("outage-during-price-war"), config);
    runner.Run();
    return RenderConsole(*runner.exchange().telemetry());
  };
  const std::string console = run(0);
  EXPECT_EQ(console, run(4));
  EXPECT_NE(console.find("alerts: containment"), std::string::npos);
  EXPECT_NE(console.find("alerts: quarantine"), std::string::npos);
  EXPECT_NE(console.find("health=quarantined"), std::string::npos);
  EXPECT_NE(console.find("health=healthy"), std::string::npos);
  EXPECT_NE(console.find("prices: cpu="), std::string::npos);
  EXPECT_NE(console.find("spread: mean="), std::string::npos);
}

}  // namespace
}  // namespace pm::telemetry
