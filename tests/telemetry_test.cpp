// Tests for the telemetry plane (src/telemetry/) and its federation
// wiring.
//
// The contracts under test, in the order docs/observability.md states
// them:
//   1. registry determinism — export bytes depend on which metrics were
//      recorded, never on recording order;
//   2. off means off — with TelemetryConfig::enabled false the epoch's
//      market outcomes are bit-identical to a federation without the
//      plane (property-tested over the whole scenario registry);
//   3. byte-identical exports — metrics JSON, trace JSON and Prometheus
//      text are equal across reruns AND across thread counts;
//   4. containment flight dumps — a supervised shard crash dumps the
//      failing bid's full span chain, the failure reason and the
//      health-machine transition.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "federation/federated_exchange.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace pm::telemetry {
namespace {

// ------------------------------------------------------------- registry --

TEST(RenderKeyTest, OmitsEmptyLabelsAndOrdersComponents) {
  EXPECT_EQ(RenderKey("up", Labels{}), "up");
  EXPECT_EQ(RenderKey("up", Labels{"s0", "", ""}), "up{shard=\"s0\"}");
  EXPECT_EQ(RenderKey("up", Labels{"s0", "cpu", "route"}),
            "up{shard=\"s0\",kind=\"cpu\",phase=\"route\"}");
  EXPECT_EQ(RenderKey("up", Labels{"", "", "settle"}),
            "up{phase=\"settle\"}");
}

TEST(RenderKeyTest, KeyLabelsUndoesEscapes) {
  const Labels labels{"a\"b", "c\\d", "e\nf"};
  const std::string key = RenderKey("up", labels);
  EXPECT_EQ(key, "up{shard=\"a\\\"b\",kind=\"c\\\\d\",phase=\"e\\nf\"}");
  const Labels parsed = KeyLabels(key);
  EXPECT_EQ(parsed.shard, labels.shard);
  EXPECT_EQ(parsed.kind, labels.kind);
  EXPECT_EQ(parsed.phase, labels.phase);
}

TEST(MetricsRegistryTest, ExportIgnoresRecordingOrder) {
  const auto record = [](MetricsRegistry& reg, bool reversed) {
    const std::vector<std::pair<std::string, double>> counters = {
        {"beta", 2.0}, {"alpha", 1.0}, {"gamma", 3.0}};
    if (reversed) {
      for (auto it = counters.rbegin(); it != counters.rend(); ++it) {
        reg.AddCounter(it->first, Labels{}, it->second);
      }
      reg.Observe("lat", Labels{"s1", "", ""}, 2.0, 0.0, 10.0, 5);
      reg.Observe("lat", Labels{"s0", "", ""}, 1.0, 0.0, 10.0, 5);
    } else {
      for (const auto& [name, value] : counters) {
        reg.AddCounter(name, Labels{}, value);
      }
      reg.Observe("lat", Labels{"s0", "", ""}, 1.0, 0.0, 10.0, 5);
      reg.Observe("lat", Labels{"s1", "", ""}, 2.0, 0.0, 10.0, 5);
    }
    reg.SetGauge("temp", Labels{}, 7.0);
    reg.SnapshotEpoch(0);
  };
  MetricsRegistry forward;
  MetricsRegistry backward;
  record(forward, false);
  record(backward, true);
  EXPECT_EQ(forward.ToJson(), backward.ToJson());
  EXPECT_EQ(forward.ToPrometheusText(), backward.ToPrometheusText());
}

TEST(MetricsRegistryTest, CountersAreMonotone) {
  MetricsRegistry reg;
  reg.AddCounter("n", Labels{}, 2.0);
  reg.AddCounter("n", Labels{}, 0.0);
  EXPECT_DOUBLE_EQ(reg.CounterValue("n", Labels{}), 2.0);
  EXPECT_THROW(reg.AddCounter("n", Labels{}, -1.0), CheckFailure);
}

TEST(MetricsRegistryTest, HistogramShapeIsPerName) {
  MetricsRegistry reg;
  reg.Observe("lat", Labels{"a", "", ""}, 1.0, 0.0, 10.0, 5);
  // A second label set of the same name must share the shape, or the
  // cross-label merge in the JSON aggregate could never be valid.
  EXPECT_THROW(reg.Observe("lat", Labels{"b", "", ""}, 1.0, 0.0, 20.0, 5),
               CheckFailure);
  reg.Observe("lat", Labels{"b", "", ""}, 12.0, 0.0, 10.0, 5);
  ASSERT_NE(reg.FindHistogram("lat", Labels{"b", "", ""}), nullptr);
  EXPECT_EQ(reg.FindHistogram("lat", Labels{"b", "", ""})->Overflow(), 1u);
}

TEST(MetricsRegistryTest, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.AddCounter("fed_rounds", Labels{"s0", "", ""}, 3.0);
  reg.AddCounter("fed_rounds", Labels{"s1", "", ""}, 5.0);
  reg.SetGauge("fed_util", Labels{}, 0.5);
  reg.Observe("fed_price", Labels{"s0", "", ""}, 2.5, 0.0, 10.0, 2);
  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE fed_rounds counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fed_util gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fed_price histogram"), std::string::npos);
  EXPECT_NE(text.find("fed_rounds{shard=\"s0\"} 3.000000"),
            std::string::npos);
  // Cumulative buckets with the +Inf catch-all, plus _sum and _count.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("fed_price_sum"), std::string::npos);
  EXPECT_NE(text.find("fed_price_count"), std::string::npos);
  // One # TYPE line per metric name, not per label set.
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE fed_rounds");
       at != std::string::npos;
       at = text.find("# TYPE fed_rounds", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

// ------------------------------------------------------ tracer/recorder --

TEST(BidTracerTest, SpansCarryLogicalTimeAndJoinByTrace) {
  BidTracer tracer;
  const std::uint64_t a = tracer.NewTrace();
  const std::uint64_t b = tracer.NewTrace();
  EXPECT_NE(a, b);
  Span& submit = tracer.Emit(a, "submit", 0, -1);
  submit.attrs.emplace_back("team", "globex");
  tracer.Emit(b, "submit", 0, -1);
  tracer.Emit(a, "route", 0, -1);
  EXPECT_EQ(tracer.SpansOf(a).size(), 2u);
  EXPECT_EQ(tracer.SpansOf(b).size(), 1u);
  EXPECT_EQ(tracer.spans()[0].seq, 1u);
  EXPECT_EQ(tracer.spans()[2].seq, 3u);
  const std::string line = tracer.spans()[0].Render();
  EXPECT_NE(line.find("submit"), std::string::npos);
  EXPECT_NE(line.find("team=globex"), std::string::npos);
}

TEST(FlightRecorderTest, RingRotatesAtCapacity) {
  FlightRecorder recorder(/*num_shards=*/1, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    FlightEvent event;
    event.epoch = i;
    event.line = "event-" + std::to_string(i);
    recorder.Record(0, std::move(event));
  }
  ASSERT_EQ(recorder.Ring(0).size(), 3u);
  EXPECT_EQ(recorder.Ring(0).front().line, "event-2");
  EXPECT_EQ(recorder.Ring(0).back().line, "event-4");
}

// -------------------------------------------------- federation fixtures --

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

federation::FederationConfig SupervisedTelemetryConfig() {
  federation::FederationConfig config;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;
  config.telemetry.enabled = true;
  return config;
}

federation::FederatedBid HomeBid(const std::string& home) {
  federation::FederatedBid bid;
  bid.team = "globex";
  bid.tag = "rollout";
  bid.quantity = cluster::TaskShape{20.0, 80.0, 2.0};
  bid.limit = 50000.0;
  bid.home_shard = home;
  return bid;
}

// ------------------------------------------------- containment flight dump --

TEST(FlightDumpTest, CrashDumpCarriesBidChainAndTransition) {
  federation::FederationConfig config = SupervisedTelemetryConfig();
  config.router.policy = federation::RoutingPolicy::kHomeAffinity;
  // An absurd spill threshold pins the bid to its home shard, so the
  // crash provably hits the shard the traced bid landed on.
  config.router.spill_threshold = 1e9;
  federation::FederatedExchange fed(TwoShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
  fed.SubmitFederatedBid(HomeBid("alpha"));
  fed.InjectShardFailure(0);
  const federation::FederationReport report = fed.RunEpoch();
  EXPECT_EQ(report.health.failed_shards, 1u);

  const Telemetry* telemetry = fed.telemetry();
  ASSERT_NE(telemetry, nullptr);
  ASSERT_EQ(telemetry->recorder().dumps().size(), 1u);
  const FlightDump& dump = telemetry->recorder().dumps()[0];
  EXPECT_EQ(dump.shard, 0u);
  EXPECT_EQ(dump.shard_name, "alpha");
  EXPECT_EQ(dump.epoch, 0);
  EXPECT_NE(dump.reason.find("injected failure"), std::string::npos);
  // quarantine_streak == 1: the first failure quarantines outright.
  EXPECT_EQ(dump.transition, "healthy -> quarantined");
  // The failing bid's full lifecycle chain is in the dump text: the
  // federation-level submit and route spans, the shard-scoped enqueue,
  // and the crashed shard-auction span.
  EXPECT_NE(dump.text.find("submit"), std::string::npos);
  EXPECT_NE(dump.text.find("route"), std::string::npos);
  EXPECT_NE(dump.text.find("enqueue"), std::string::npos);
  EXPECT_NE(dump.text.find("shard-auction"), std::string::npos);
  EXPECT_NE(dump.text.find("outcome=crashed"), std::string::npos);
  EXPECT_NE(dump.text.find("fed/globex/rollout"), std::string::npos);
  EXPECT_NE(dump.text.find("healthy -> quarantined"), std::string::npos);
  // The ring kept the health event and the crash event.
  EXPECT_NE(dump.text.find("auction crashed"), std::string::npos);

  // The bid itself was rerouted (its only part was on the failed shard):
  // its trace carries a reroute span.
  bool saw_reroute = false;
  for (const Span& span : telemetry->tracer().spans()) {
    saw_reroute = saw_reroute || span.name == "reroute";
  }
  EXPECT_TRUE(saw_reroute);
}

TEST(FlightDumpTest, DumpBytesStableAcrossRerunsAndThreads) {
  const auto run = [](std::size_t threads) {
    federation::FederationConfig config = SupervisedTelemetryConfig();
    config.num_threads = threads;
    config.router.policy = federation::RoutingPolicy::kHomeAffinity;
    config.router.spill_threshold = 1e9;
    federation::FederatedExchange fed(TwoShards(), config);
    fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
    fed.SubmitFederatedBid(HomeBid("alpha"));
    fed.InjectShardFailure(0);
    fed.RunEpoch();
    fed.RunEpoch();  // Quarantined epoch: ring records the sit-out.
    const Telemetry* telemetry = fed.telemetry();
    return std::vector<std::string>{telemetry->MetricsJson(),
                                    telemetry->TraceJson(),
                                    telemetry->PrometheusText()};
  };
  const std::vector<std::string> serial = run(0);
  const std::vector<std::string> serial_again = run(0);
  const std::vector<std::string> threaded = run(4);
  EXPECT_EQ(serial, serial_again);
  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial[1].find("flight recorder"), std::string::npos);
}

// ------------------------------------------------------- off means off --

TEST(TelemetryGateTest, DisabledPlaneLeavesMarketOutcomesBitIdentical) {
  const auto run = [](bool telemetry) {
    federation::FederationConfig config;
    config.supervisor.enabled = true;
    config.telemetry.enabled = telemetry;
    federation::FederatedExchange fed(TwoShards(), config);
    fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
    fed.SubmitFederatedBid(HomeBid("alpha"));
    fed.RunEpoch();
    return fed.RunEpoch();
  };
  const federation::FederationReport with = run(true);
  const federation::FederationReport without = run(false);
  ASSERT_EQ(with.shards.size(), without.shards.size());
  for (std::size_t k = 0; k < with.shards.size(); ++k) {
    const exchange::AuctionReport& a = with.shards[k].report;
    const exchange::AuctionReport& b = without.shards[k].report;
    EXPECT_EQ(a.num_bids, b.num_bids);
    EXPECT_EQ(a.num_winners, b.num_winners);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.operator_revenue, b.operator_revenue);
    EXPECT_EQ(a.settled_prices, b.settled_prices);
    ASSERT_EQ(a.awards.size(), b.awards.size());
    for (std::size_t i = 0; i < a.awards.size(); ++i) {
      EXPECT_EQ(a.awards[i].bid_name, b.awards[i].bid_name);
      EXPECT_EQ(a.awards[i].payment, b.awards[i].payment);
    }
  }
  EXPECT_EQ(with.routed.size(), without.routed.size());
}

// -------------------------------------------- scenario registry property --

TEST(TelemetryScenarioPropertyTest, OffIsBitIdenticalOnEveryScenario) {
  // Property over the whole scenario registry: arming the telemetry
  // plane never changes a scenario's deterministic metrics document.
  for (const std::string& name : scenario::ScenarioNames()) {
    const auto run = [&](bool telemetry) {
      scenario::ScenarioSpec spec = scenario::FindScenario(name);
      spec.federation.telemetry.enabled = telemetry;
      scenario::RunnerConfig config;
      config.epochs = 2;
      scenario::ScenarioRunner runner(std::move(spec), config);
      return runner.Run().ToJson();
    };
    EXPECT_EQ(run(false), run(true)) << "scenario " << name;
  }
}

TEST(TelemetryScenarioPropertyTest, ExportsThreadInvariantOnEveryScenario) {
  // And the armed plane's own exports are byte-identical across thread
  // counts on every registered scenario.
  for (const std::string& name : scenario::ScenarioNames()) {
    const auto run = [&](std::size_t threads) {
      scenario::ScenarioSpec spec = scenario::FindScenario(name);
      spec.federation.telemetry.enabled = true;
      scenario::RunnerConfig config;
      config.epochs = 2;
      config.num_threads = threads;
      scenario::ScenarioRunner runner(std::move(spec), config);
      runner.Run();
      const Telemetry* telemetry = runner.exchange().telemetry();
      return std::vector<std::string>{telemetry->MetricsJson(),
                                      telemetry->TraceJson()};
    };
    EXPECT_EQ(run(0), run(2)) << "scenario " << name;
  }
}

// ------------------------------------------------------- counter wiring --

TEST(TelemetryCountersTest, EngineAndRouterCountersLand) {
  federation::FederationConfig config;
  config.telemetry.enabled = true;
  federation::FederatedExchange fed(TwoShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(100000));
  fed.SubmitFederatedBid(HomeBid(""));  // Cheapest-price policy default.
  fed.RunEpoch();
  const MetricsRegistry& reg = fed.telemetry()->registry();
  double rounds = 0.0;
  double evals = 0.0;
  double collections = 0.0;
  for (const char* shard : {"alpha", "beta"}) {
    Labels by_shard{shard, "", ""};
    rounds += reg.CounterValue("fed_auction_rounds", by_shard);
    evals += reg.CounterValue("fed_demand_evaluations", by_shard);
    Labels by_phase{shard, "", "full"};
    collections += reg.CounterValue("fed_engine_collections", by_phase);
    by_phase.phase = "incremental";
    collections += reg.CounterValue("fed_engine_collections", by_phase);
  }
  EXPECT_GT(rounds, 0.0);
  EXPECT_GT(evals, 0.0);
  // Every auction's demand collections are phase-split into full sweeps
  // plus incremental passes; at least the two round-0 sweeps must show.
  EXPECT_GE(collections, 2.0);
  // The one submitted bid is routed once, under whichever policy phase.
  double routed = 0.0;
  for (const federation::RoutingPolicy policy :
       {federation::RoutingPolicy::kHomeAffinity,
        federation::RoutingPolicy::kCheapestPrice}) {
    Labels by_policy;
    by_policy.phase = std::string(federation::ToString(policy));
    routed += reg.CounterValue("fed_router_bids_routed", by_policy);
  }
  EXPECT_EQ(routed, 1.0);
  EXPECT_EQ(reg.NumEpochs(), 1u);
  // The clearing-price histogram exists for at least one kind.
  EXPECT_NE(reg.FindHistogram("fed_clearing_price",
                              Labels{"alpha", "cpu", ""}),
            nullptr);
}

}  // namespace
}  // namespace pm::telemetry
