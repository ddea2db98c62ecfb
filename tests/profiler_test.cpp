// Tests for the phase profiler (telemetry/profiler.h) and its wiring
// through the federation and scenario layers.
//
// The contracts under test:
//   1. work-accounting determinism — the fed_work_* registry series are
//      byte-identical across reruns and thread counts (the property that
//      makes work-counter drift a host-noise-immune perf-regression
//      proxy);
//   2. off means off — with the profiler unarmed, no fed_work_ or
//      derived:work_ series exist and every scenario in the registry
//      produces bit-identical metrics with the profiler on vs off;
//   3. the kDeltaDrift rule kind — Δnow/Δprev per label set, quiet
//      start-up, and private baseline state so a drift rule can watch
//      the same counter as a kCounterRate rule without stealing its
//      delta;
//   4. the work alert pack — sustained work drift walks the default
//      drift alert to firing;
//   5. chrome-trace export — well-formed Trace Event Format JSON with
//      one thread_name record per track and the expected phase spans on
//      shard and federation tracks, each epoch span enclosing that
//      epoch's barrier;
//   6. flight recorder — containment dumps attach the failing shard's
//      phase work tree (work counters only, with the rolled-back
//      failing epoch called out).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "federation/federated_exchange.h"
#include "federation/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/alerts.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "telemetry/rules.h"
#include "telemetry/telemetry.h"

namespace pm::telemetry {
namespace {

// ------------------------------------------------------ profiler object --

TEST(PhaseProfilerTest, RecordsAndFindsWorkPerEpochShard) {
  PhaseProfiler profiler(ProfilerConfig{true, false}, {"alpha", "beta"});
  WorkCounters work;
  work.dot_blocks = 40;
  work.bisection_probes = 7;
  work.kernel = "avx2";
  profiler.RecordWork(0, 1, work);
  ASSERT_NE(profiler.FindWork(0, 1), nullptr);
  EXPECT_EQ(profiler.FindWork(0, 1)->dot_blocks, 40);
  EXPECT_EQ(profiler.FindWork(0, 1)->kernel, "avx2");
  EXPECT_EQ(profiler.FindWork(0, 0), nullptr);
  EXPECT_EQ(profiler.FindWork(1, 1), nullptr);
}

TEST(PhaseProfilerTest, WorkTreeShowsRunUpAndRolledBackEpoch) {
  PhaseProfiler profiler(ProfilerConfig{true, false}, {"alpha"});
  for (int e = 0; e < 4; ++e) {
    WorkCounters work;
    work.dot_blocks = 10 * (e + 1);
    work.full_collections = 2;
    work.incremental_collections = 3;
    work.dirty_bidders = 5;
    work.bisection_probes = e;
    work.refund_ops = 1;
    work.wire_retries = 2;
    work.wire_dedups = 1;
    work.kernel = "scalar";
    profiler.RecordWork(e, 0, work);
  }
  // Epoch 5 itself never reported (it failed): the tree shows the most
  // recent recorded epochs plus an explicit rolled-back note.
  const std::string tree = profiler.RenderWorkTree(0, 5, /*history=*/2);
  EXPECT_NE(tree.find("phase work tree: shard 0"), std::string::npos);
  EXPECT_NE(tree.find("epoch 2"), std::string::npos);
  EXPECT_NE(tree.find("epoch 3"), std::string::npos);
  EXPECT_EQ(tree.find("epoch 1"), std::string::npos);  // History cap.
  EXPECT_NE(tree.find("dot_blocks=40"), std::string::npos);
  EXPECT_NE(tree.find("kernel=scalar"), std::string::npos);
  EXPECT_NE(tree.find("probes="), std::string::npos);
  EXPECT_NE(tree.find("refund_ops="), std::string::npos);
  EXPECT_NE(tree.find("retries="), std::string::npos);
  EXPECT_NE(tree.find("not recorded"), std::string::npos);

  // An epoch that DID report carries no rolled-back note.
  const std::string clean = profiler.RenderWorkTree(0, 3, /*history=*/1);
  EXPECT_EQ(clean.find("not recorded"), std::string::npos);
}

TEST(PhaseProfilerTest, ChromeTraceIsWellFormed) {
  PhaseProfiler profiler(ProfilerConfig{false, true}, {"alpha", "beta"});
  profiler.AddSpan(0, 0, PhaseSpan{"collect", 2000, 5000});
  profiler.AddSpan(1, 0, PhaseSpan{"settle", 4000, 9000});
  {
    ScopedSpan span(&profiler, profiler.federation_track(), 0, "barrier");
  }
  EXPECT_EQ(profiler.num_spans(), 3u);

  const std::string json = profiler.ChromeTraceJson();
  // One thread_name metadata record per track, federation appended.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
  EXPECT_NE(json.find("beta"), std::string::npos);
  EXPECT_NE(json.find("federation"), std::string::npos);
  // Complete ("X") events with epoch args; timestamps normalized to the
  // earliest span (begin 2000 ns -> ts 0).
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"collect\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\": 0"), std::string::npos);
  int depth = 0;
  for (const char c : json) {
    depth += c == '{' ? 1 : c == '}' ? -1 : 0;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  int brackets = 0;
  for (const char c : json) {
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(brackets, 0);
}

TEST(PhaseProfilerTest, NullScopedSpanIsANoOp) {
  ScopedSpan span(nullptr, 0, 0, "never");
  span.Stop();  // Must not crash; nothing to record into.
}

// ------------------------------------------------------ kDeltaDrift rule --

TEST(DeltaDriftRuleTest, DriftIsDeltaOverPreviousDelta) {
  MetricsRegistry reg;
  RuleEngine engine({{RecordingRule::Kind::kDeltaDrift, "work_drift",
                      "work", ""}});
  const Labels shard{"a", "", ""};

  reg.AddCounter("work", shard, 100.0);
  engine.EvaluateEpoch(reg);  // First active epoch: no previous delta.
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_drift", shard), 0.0);

  reg.AddCounter("work", shard, 100.0);
  engine.EvaluateEpoch(reg);  // Δ 100 / Δ 100.
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_drift", shard), 1.0);

  reg.AddCounter("work", shard, 300.0);
  engine.EvaluateEpoch(reg);  // Δ 300 / Δ 100: a 3x work blowup.
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_drift", shard), 3.0);

  engine.EvaluateEpoch(reg);  // Quiet epoch: Δ 0 over Δ 300.
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_drift", shard), 0.0);
}

TEST(DeltaDriftRuleTest, CoexistsWithCounterRateOnTheSameSource) {
  // The shared-baseline trap: kCounterRate and kRatio difference against
  // one shared per-counter baseline, so two of THOSE on one source would
  // leave the second reading Δ = 0. kDeltaDrift keeps private state
  // precisely so the work pack can ship rate + drift on one counter.
  MetricsRegistry reg;
  RuleEngine engine(
      {{RecordingRule::Kind::kCounterRate, "work_rate", "work", ""},
       {RecordingRule::Kind::kDeltaDrift, "work_drift", "work", ""}});
  const Labels shard{"a", "", ""};

  reg.AddCounter("work", shard, 10.0);
  engine.EvaluateEpoch(reg);
  reg.AddCounter("work", shard, 20.0);
  engine.EvaluateEpoch(reg);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_rate", shard), 20.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("derived:work_drift", shard), 2.0);
}

TEST(WorkAlertPackTest, SustainedDriftWalksTheDefaultAlertToFiring) {
  MetricsRegistry reg;
  RuleEngine rules(DefaultWorkRecordingRules());
  AlertEngine alerts(DefaultWorkAlertRules());
  const Labels shard{"a", "", ""};

  // Epochs 0-1: steady work, drift <= 1. Epochs 2-3: a sustained 3x
  // blowup; the default work-dot-block-drift rule (threshold 2.0,
  // for_epochs 2) goes pending then firing.
  const double deltas[] = {100.0, 100.0, 300.0, 900.0};
  bool fired = false;
  for (int e = 0; e < 4; ++e) {
    reg.AddCounter("fed_work_dot_blocks", shard, deltas[e]);
    rules.EvaluateEpoch(reg);
    alerts.EvaluateEpoch(reg, e);
    for (const std::string& name : alerts.FiringNames()) {
      fired = fired || name == "work-dot-block-drift";
    }
  }
  EXPECT_TRUE(fired);
  EXPECT_TRUE(alerts.EverFired("work-dot-block-drift"));
}

// --------------------------------------------------- federation wiring --

std::vector<federation::ShardSpec> BaseShards(std::size_t shards,
                                              int teams) {
  std::vector<federation::ShardSpec> specs;
  for (std::size_t k = 0; k < shards; ++k) {
    federation::ShardSpec spec;
    spec.name = "shard-" + std::to_string(k);
    spec.workload.num_teams = teams;
    spec.workload.num_clusters = 4;
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    specs.push_back(std::move(spec));
  }
  return specs;
}

federation::FederationConfig ProfilerConfigOn(std::size_t num_threads) {
  federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = num_threads;
  config.telemetry.enabled = true;
  config.telemetry.profiler.work_accounting = true;
  return config;
}

std::string MetricsOf(const federation::FederatedExchange& fed) {
  return fed.telemetry() != nullptr ? fed.telemetry()->MetricsJson() : "";
}

TEST(WorkAccountingTest, CountersAreByteIdenticalAcrossThreadsAndReruns) {
  const auto run = [](std::size_t threads) {
    federation::FederatedExchange fed(BaseShards(3, 20),
                                      ProfilerConfigOn(threads));
    for (int e = 0; e < 3; ++e) fed.RunEpoch();
    return MetricsOf(fed);
  };
  const std::string once = run(1);
  EXPECT_EQ(once, run(1));  // Rerun.
  EXPECT_EQ(once, run(4));  // Thread count.
  EXPECT_NE(once.find("fed_work_dot_blocks"), std::string::npos);
  EXPECT_NE(once.find("fed_work_dirty_bidders"), std::string::npos);
  EXPECT_NE(once.find("fed_work_refund_ops"), std::string::npos);
  // The dot-block series carries the kernel tier as its phase label
  // (the JSON document escapes the quotes inside canonical keys).
  EXPECT_NE(once.find("phase=\\\"scalar\\\""), std::string::npos);
}

TEST(WorkAccountingTest, ProfilerOffLeaksNoWorkSeries) {
  federation::FederationConfig config = ProfilerConfigOn(2);
  config.telemetry.profiler.work_accounting = false;
  config.telemetry.watchdog.recording_rules = true;
  config.telemetry.watchdog.alerts = true;
  federation::FederatedExchange fed(BaseShards(2, 12), config);
  for (int e = 0; e < 2; ++e) fed.RunEpoch();
  const std::string json = MetricsOf(fed);
  EXPECT_EQ(json.find("fed_work_"), std::string::npos);
  EXPECT_EQ(json.find("derived:work_"), std::string::npos);
  EXPECT_EQ(fed.telemetry()->profiler(), nullptr);
}

TEST(WorkAccountingTest, WorkRulePackRidesTheWatchdogWhenBothArmed) {
  federation::FederationConfig config = ProfilerConfigOn(2);
  config.telemetry.watchdog.recording_rules = true;
  config.telemetry.watchdog.alerts = true;
  federation::FederatedExchange fed(BaseShards(2, 12), config);
  for (int e = 0; e < 2; ++e) fed.RunEpoch();
  const std::string json = MetricsOf(fed);
  EXPECT_NE(json.find("fed_work_dot_blocks"), std::string::npos);
  EXPECT_NE(json.find("derived:work_dot_blocks_rate"), std::string::npos);
  EXPECT_NE(json.find("derived:work_dot_blocks_drift"),
            std::string::npos);
  EXPECT_NE(json.find("derived:work_probes_per_round"),
            std::string::npos);
}

// ------------------------------------------------------ scenario gating --

TEST(ProfilerGateTest, OffIsBitIdenticalOverTheScenarioRegistry) {
  // Every registered scenario: arming both profiler channels must not
  // move a single byte of the scenario metrics document.
  for (const std::string& name : scenario::ScenarioNames()) {
    const auto run = [&](bool profiler) {
      scenario::ScenarioSpec spec = scenario::FindScenario(name);
      spec.federation.telemetry.enabled = true;
      spec.federation.telemetry.profiler.work_accounting = profiler;
      spec.federation.telemetry.profiler.wall_clock = profiler;
      scenario::RunnerConfig config;
      config.epochs = 2;
      scenario::ScenarioRunner runner(std::move(spec), config);
      return runner.Run().ToJson();
    };
    EXPECT_EQ(run(false), run(true)) << "scenario " << name;
  }
}

// --------------------------------------------------- wall-clock channel --

TEST(WallChannelTest, SerialFederationRecordsShardAndFederationSpans) {
  federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = 2;
  config.telemetry.enabled = true;
  config.telemetry.profiler.wall_clock = true;
  federation::FederatedExchange fed(BaseShards(2, 12), config);
  for (int e = 0; e < 2; ++e) fed.RunEpoch();
  const PhaseProfiler* profiler = fed.telemetry()->profiler();
  ASSERT_NE(profiler, nullptr);
  EXPECT_GT(profiler->num_spans(), 0u);
  const std::string json = profiler->ChromeTraceJson();
  EXPECT_NE(json.find("\"name\": \"collect\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"settle\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"epoch\""), std::string::npos);
  EXPECT_NE(json.find("federation"), std::string::npos);
  EXPECT_NE(json.find("shard-0"), std::string::npos);
  // The wall channel never reaches the deterministic document.
  EXPECT_EQ(MetricsOf(fed).find("fed_work_"), std::string::npos);

  // One epoch span per epoch on the federation track, enclosing that
  // epoch's barrier span. Each event renders on its own line.
  const std::string fed_tid =
      "\"tid\": " + std::to_string(profiler->federation_track()) + ",";
  std::map<std::pair<int, std::string>, std::pair<double, double>> spans;
  int epoch_spans = 0;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\": \"X\"") == std::string::npos ||
        line.find(fed_tid) == std::string::npos) {
      continue;
    }
    const auto number = [&](const std::string& key) {
      return std::atof(line.c_str() + line.find(key) + key.size());
    };
    const std::size_t name_at = line.find("\"name\": \"") + 9;
    const std::string name =
        line.substr(name_at, line.find('"', name_at) - name_at);
    const double ts = number("\"ts\": ");
    epoch_spans += name == "epoch" ? 1 : 0;
    spans[{static_cast<int>(number("\"epoch\": ")), name}] = {
        ts, ts + number("\"dur\": ")};
  }
  EXPECT_EQ(epoch_spans, 2);
  for (int e = 0; e < 2; ++e) {
    ASSERT_EQ(spans.count({e, "epoch"}), 1u) << "epoch " << e;
    ASSERT_EQ(spans.count({e, "barrier"}), 1u) << "epoch " << e;
    const auto [epoch_begin, epoch_end] = spans[{e, "epoch"}];
    const auto [barrier_begin, barrier_end] = spans[{e, "barrier"}];
    EXPECT_LE(epoch_begin, barrier_begin + 1e-3) << "epoch " << e;
    EXPECT_GE(epoch_end, barrier_end - 1e-3) << "epoch " << e;
  }
}

// ------------------------------------------------------ flight recorder --

TEST(FlightDumpTest, ContainmentDumpAttachesThePhaseWorkTree) {
  federation::FederationConfig config = ProfilerConfigOn(2);
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;
  federation::FederatedExchange fed(BaseShards(2, 12), config);
  fed.RunEpoch();  // A healthy run-up epoch records work for shard 0.
  fed.InjectShardFailure(0);
  fed.RunEpoch();

  const std::vector<FlightDump>& dumps =
      fed.telemetry()->recorder().dumps();
  ASSERT_FALSE(dumps.empty());
  const FlightDump& dump = dumps.front();
  EXPECT_EQ(dump.shard, 0u);
  EXPECT_NE(dump.text.find("phase work tree"), std::string::npos);
  EXPECT_NE(dump.text.find("dot_blocks="), std::string::npos);
  // The failing epoch rolled back with the shard; the tree says so.
  EXPECT_NE(dump.text.find("not recorded"), std::string::npos);
}

TEST(FlightDumpTest, ProfilerOffDumpsCarryNoWorkTree) {
  federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = 2;
  config.telemetry.enabled = true;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;
  federation::FederatedExchange fed(BaseShards(2, 12), config);
  fed.InjectShardFailure(0);
  fed.RunEpoch();
  const std::vector<FlightDump>& dumps =
      fed.telemetry()->recorder().dumps();
  ASSERT_FALSE(dumps.empty());
  EXPECT_EQ(dumps.front().text.find("phase work tree"),
            std::string::npos);
}

}  // namespace
}  // namespace pm::telemetry
