// Tests for the scenario engine: registry integrity, the bit-for-bit
// determinism contract (same seed → byte-identical metrics JSON, across
// reruns AND thread counts), the shard-outage scenario's refund-path
// guarantees, event validation, and the runner's mutation hooks
// (demand-shock restore, outage recovery, expansion pool growth, cohort
// retirement burning its money).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "scenario/events.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace pm::scenario {
namespace {

// ------------------------------------------------------------ registry --

TEST(ScenarioRegistryTest, ShipsTheSixStressRegimes) {
  const std::vector<std::string> names = ScenarioNames();
  ASSERT_GE(names.size(), 6u);
  const std::set<std::string> expected = {
      "demand-shock",   "flash-crowd", "shard-outage",
      "price-war",      "capacity-expansion", "churn-wave"};
  for (const std::string& name : expected) {
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
  }
  EXPECT_THROW(FindScenario("no-such-scenario"), pm::CheckFailure);
}

TEST(ScenarioRegistryTest, EverySpecIsWellFormed) {
  for (const ScenarioSpec& spec : ScenarioLibrary()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.description.empty());
    EXPECT_FALSE(spec.shards.empty()) << spec.name;
    EXPECT_FALSE(spec.events.empty()) << spec.name;
    for (const ScenarioEvent& event : spec.events) {
      EXPECT_EQ(ValidateEvent(event, spec.shards.size()), "")
          << spec.name << ": " << ToString(event.kind);
      // The timeline must actually play out inside the default run.
      EXPECT_LT(event.epoch, kDefaultEpochs) << spec.name;
    }
  }
}

// ------------------------------------------------------- event checks --

TEST(ScenarioEventTest, ValidateRejectsMalformedEvents) {
  ScenarioEvent event;
  event.kind = EventKind::kShardOutage;
  event.magnitude = 0.5;
  EXPECT_EQ(ValidateEvent(event, 2), "");
  event.shard = 5;
  EXPECT_NE(ValidateEvent(event, 2), "");
  event.shard = 0;
  event.epoch = -1;
  EXPECT_NE(ValidateEvent(event, 2), "");
  event.epoch = 0;
  event.duration = 0;
  EXPECT_NE(ValidateEvent(event, 2), "");
  event.duration = 1;
  event.magnitude = 1.5;
  EXPECT_NE(ValidateEvent(event, 2), "");

  ScenarioEvent crowd;
  crowd.kind = EventKind::kFlashCrowd;
  crowd.count = 0;
  crowd.magnitude = 10.0;
  crowd.budget = Money::FromDollars(100);
  EXPECT_NE(ValidateEvent(crowd, 2), "");  // Needs a cohort.
  crowd.count = 3;
  EXPECT_EQ(ValidateEvent(crowd, 2), "");
  crowd.budget = Money();
  EXPECT_NE(ValidateEvent(crowd, 2), "");  // Needs funding.

  EXPECT_EQ(ToString(EventKind::kPriceWar), "price-war");
  EXPECT_EQ(ToString(EventKind::kChurnWave), "churn-wave");
}

TEST(ScenarioRunnerTest, RejectsInvalidTimelines) {
  ScenarioSpec spec = FindScenario("demand-shock");
  spec.events[0].shard = 99;
  EXPECT_THROW(ScenarioRunner(spec, RunnerConfig{}), pm::CheckFailure);
}

// -------------------------------------------------------- determinism --

// Every scenario's seed-77 document is also pinned against
// tests/golden/scenarios/<name>.json. After an intended behaviour change,
// regenerate each one from the build directory with
//   ./example_scenario_runner --scenario <name> --seed 77 \
//       --out ../tests/golden/scenarios/<name>.json
TEST(ScenarioDeterminismTest, EveryScenarioIsByteIdenticalAcrossReruns) {
  for (const ScenarioSpec& spec : ScenarioLibrary()) {
    RunnerConfig config;
    config.seed = 77;
    const std::string first =
        ScenarioRunner(spec, config).Run().ToJson();
    const std::string second =
        ScenarioRunner(spec, config).Run().ToJson();
    EXPECT_EQ(first, second) << spec.name;

    const std::string path = std::string(PM_REPO_ROOT) +
                             "/tests/golden/scenarios/" + spec.name +
                             ".json";
    std::ifstream golden(path);
    ASSERT_TRUE(golden.good()) << "missing golden file " << path;
    std::ostringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(first, expected.str()) << spec.name;
  }
}

TEST(ScenarioDeterminismTest, ThreadCountNeverChangesTheBytes) {
  for (const ScenarioSpec& spec : ScenarioLibrary()) {
    RunnerConfig serial;
    serial.seed = 20090425;
    RunnerConfig threaded = serial;
    threaded.num_threads = 3;
    EXPECT_EQ(ScenarioRunner(spec, serial).Run().ToJson(),
              ScenarioRunner(spec, threaded).Run().ToJson())
        << spec.name;
  }
}

TEST(ScenarioDeterminismTest, SeedActuallySteersTheRun) {
  RunnerConfig a;
  a.seed = 1;
  RunnerConfig b;
  b.seed = 2;
  const ScenarioSpec& spec = FindScenario("flash-crowd");
  EXPECT_NE(ScenarioRunner(spec, a).Run().ToJson(),
            ScenarioRunner(spec, b).Run().ToJson());
}

TEST(ScenarioRunnerTest, EventSeedsAvoidShardStreams) {
  // Event streams must never collide with each other or with the
  // federation's shard-seed expansion of the same root.
  const std::uint64_t root = 20090425;
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    seen.insert(ScenarioRunner::EventSeed(root, i));
    seen.insert(federation::FederatedExchange::ShardWorkloadSeed(root, i));
    seen.insert(federation::FederatedExchange::ShardMarketSeed(root, i));
  }
  EXPECT_EQ(seen.size(), 3u * 64u);
}

// ------------------------------------------------- outage guarantees --

TEST(ScenarioOutageTest, RefundPathRunsEndToEnd) {
  ScenarioRunner runner(FindScenario("shard-outage"), RunnerConfig{});
  const ScenarioMetrics metrics = runner.Run();

  // The outage must force real failures and real refunds...
  EXPECT_GT(metrics.refund_total, 0.0);
  EXPECT_GT(metrics.refunded_units, 0.0);
  EXPECT_GT(metrics.placement_failures, 0u);
  // ...and every awarded unit is accounted for: placed or refunded.
  for (const EpochSample& sample : metrics.series) {
    EXPECT_NEAR(sample.awarded_units,
                sample.placed_units + sample.refunded_units,
                1e-6 * std::max(1.0, sample.awarded_units))
        << "epoch " << sample.epoch;
  }
  // The SLOs encode exactly these guarantees — they must have been
  // evaluated and passed.
  EXPECT_TRUE(metrics.slos_evaluated);
  EXPECT_TRUE(metrics.slo_pass) << metrics.ToJson();
  // Money stayed conserved through extraction, refunds, and recovery.
  EXPECT_LE(metrics.max_treasury_residual, 1e-6);

  // Recovery happened: shard 0 is back to its full cluster complement.
  EXPECT_EQ(runner.exchange().ShardWorld(0).fleet.NumClusters(), 5u);
}

// ------------------------------------------------------ runner hooks --

TEST(ScenarioRunnerTest, DemandShockRestoresGrowthRates) {
  // Run past the shock window, then compare against an untouched twin:
  // every profile's growth rate must be back to its generated value.
  const ScenarioSpec& spec = FindScenario("demand-shock");
  RunnerConfig config;
  ScenarioRunner runner(spec, config);
  runner.Run();

  ScenarioSpec no_events = spec;
  no_events.events.clear();
  ScenarioRunner twin(no_events, config);
  const agents::World& shocked = runner.exchange().ShardWorld(0);
  const agents::World& reference = twin.exchange().ShardWorld(0);
  ASSERT_EQ(shocked.agents.size(), reference.agents.size());
  for (std::size_t a = 0; a < shocked.agents.size(); ++a) {
    EXPECT_DOUBLE_EQ(shocked.agents[a].profile().growth_rate,
                     reference.agents[a].profile().growth_rate);
  }
}

TEST(ScenarioRunnerTest, OverlappingDemandShocksUnwindCleanly) {
  // Two shocks whose windows interleave on the same teams: multipliers
  // must compose while overlapped and the LAST window to close must
  // restore the generated rates exactly — an expired shock may never
  // strand its multiplier (the compound-timeline ROADMAP item leans on
  // this).
  ScenarioSpec spec = FindScenario("demand-shock");
  spec.events.clear();
  spec.events.push_back(ScenarioEvent{EventKind::kDemandShock,
                                      /*epoch=*/1, /*duration=*/3,
                                      /*shard=*/0, /*magnitude=*/4.0,
                                      /*count=*/0, Money()});
  spec.events.push_back(ScenarioEvent{EventKind::kDemandShock,
                                      /*epoch=*/2, /*duration=*/4,
                                      /*shard=*/0, /*magnitude=*/3.0,
                                      /*count=*/0, Money()});
  RunnerConfig config;
  ScenarioRunner runner(spec, config);
  runner.Run();  // kDefaultEpochs = 8 > both window ends (4 and 6).

  ScenarioSpec no_events = spec;
  no_events.events.clear();
  ScenarioRunner twin(no_events, config);
  const agents::World& shocked = runner.exchange().ShardWorld(0);
  const agents::World& reference = twin.exchange().ShardWorld(0);
  ASSERT_EQ(shocked.agents.size(), reference.agents.size());
  for (std::size_t a = 0; a < shocked.agents.size(); ++a) {
    EXPECT_DOUBLE_EQ(shocked.agents[a].profile().growth_rate,
                     reference.agents[a].profile().growth_rate);
  }
}

TEST(ScenarioRunnerTest, CapacityExpansionGrowsPoolSpaceAppendOnly) {
  ScenarioRunner runner(FindScenario("capacity-expansion"),
                        RunnerConfig{});
  const ScenarioMetrics metrics = runner.Run();
  ASSERT_FALSE(metrics.series.empty());
  // Two expansions × 3 kinds = 6 new pools on top of the start state,
  // and the growth is monotone (pool ids are append-only).
  EXPECT_EQ(metrics.series.back().total_pools,
            metrics.series.front().total_pools + 6);
  for (std::size_t e = 1; e < metrics.series.size(); ++e) {
    EXPECT_GE(metrics.series[e].total_pools,
              metrics.series[e - 1].total_pools);
  }
  EXPECT_TRUE(metrics.slo_pass);
  EXPECT_GT(metrics.move_billing_total, 0.0);  // Billed moves satellite.
}

TEST(ScenarioRunnerTest, RetiredCohortsLeaveNoMoneyBehind) {
  ScenarioRunner runner(FindScenario("flash-crowd"), RunnerConfig{});
  runner.Run();
  const federation::FederationTreasury* treasury =
      runner.exchange().treasury();
  ASSERT_NE(treasury, nullptr);
  std::size_t crowd_teams = 0;
  for (const std::string& team : treasury->Teams()) {
    if (team.rfind("flash-", 0) == 0) {
      ++crowd_teams;
      EXPECT_TRUE(treasury->PlanetBalance(team).IsZero()) << team;
    }
  }
  EXPECT_EQ(crowd_teams, 10u);  // The cohort actually existed.
  // Their exits are explicit burns, so supply still balances.
  EXPECT_EQ(treasury->CirculatingSupply(),
            treasury->TotalMinted() - treasury->TotalBurned());
  EXPECT_GT(treasury->TotalBurned(), Money());
}

TEST(ScenarioRunnerTest, ShortRunsSkipSloEvaluation) {
  RunnerConfig one_epoch;
  one_epoch.epochs = 1;
  const ScenarioMetrics metrics =
      ScenarioRunner(FindScenario("shard-outage"), one_epoch).Run();
  EXPECT_EQ(metrics.epochs, 1);
  EXPECT_FALSE(metrics.slos_evaluated);
  EXPECT_TRUE(metrics.slo_pass);
  EXPECT_TRUE(metrics.slos.empty());
}

TEST(ScenarioRunnerTest, RunIsOneShot) {
  ScenarioRunner runner(FindScenario("demand-shock"), RunnerConfig{});
  runner.Run();
  EXPECT_THROW(runner.Run(), pm::CheckFailure);
}

// ------------------------------------------------------------ metrics --

TEST(ScenarioMetricsTest, JsonIsWellFormedAndSelfConsistent) {
  ScenarioRunner runner(FindScenario("churn-wave"), RunnerConfig{});
  const ScenarioMetrics metrics = runner.Run();
  const std::string json = metrics.ToJson();
  // Structural spot checks (a full parser lives in the bench tooling).
  EXPECT_NE(json.find("\"scenario\": \"churn-wave\""), std::string::npos);
  EXPECT_NE(json.find("\"series\": ["), std::string::npos);
  EXPECT_NE(json.find("\"slo\": {"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // The churn wave actually churned, and the series is epoch-aligned.
  ASSERT_EQ(metrics.series.size(),
            static_cast<std::size_t>(metrics.epochs));
  for (int e = 0; e < metrics.epochs; ++e) {
    EXPECT_EQ(metrics.series[static_cast<std::size_t>(e)].epoch, e);
  }
  EXPECT_GT(metrics.series.back().churn_started, 0);
}

}  // namespace
}  // namespace pm::scenario
