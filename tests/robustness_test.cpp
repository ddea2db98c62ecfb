// Tests for the shard failure domains: epoch supervision, checkpoint /
// restore, health transitions, and crash recovery under a lossy wire.
//
// The contracts under test:
//   (1) Market::Snapshot/Restore round-trips byte-identically for every
//       market configuration the scenario library exercises, and a
//       restored market replays the next epoch bit-identically.
//   (2) A shard crashing mid-epoch is contained: the planet epoch
//       completes, the shard rolls back to its epoch-boundary
//       checkpoint, its treasury float is refunded, and the ledger's
//       conservation invariant (Σ teams + Σ floats + Σ shard-net ==
//       minted − burned) holds in every terminal state — including the
//       unsupervised path, where the failure propagates only after the
//       treasury sweep.
//   (3) The health machine walks healthy → degraded → quarantined →
//       recovering → healthy with deterministic epoch-denominated
//       backoff, and the supervisor left idle perturbs nothing.
//   (4) The acceptance scenario: a crash during a price war on a lossy
//       proxy wire completes with awarded == placed + refunded and
//       byte-identical metrics JSON across reruns and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "federation/federated_exchange.h"
#include "federation/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace pm::federation {
namespace {

// ------------------------------------------------------------- fixtures --

agents::WorkloadConfig SmallWorkload() {
  agents::WorkloadConfig config;
  config.num_clusters = 4;
  config.num_teams = 12;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  return config;
}

exchange::MarketConfig FastMarket() {
  exchange::MarketConfig config;
  config.auction.alpha = 0.4;
  config.auction.delta = 0.08;
  config.auction.max_rounds = 30000;
  return config;
}

std::vector<ShardSpec> ThreeShards() {
  std::vector<ShardSpec> specs;
  for (int k = 0; k < 3; ++k) {
    ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload = SmallWorkload();
    spec.market = FastMarket();
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectConserved(const FederationTreasury& treasury) {
  EXPECT_EQ(treasury.CirculatingSupply(),
            treasury.TotalMinted() - treasury.TotalBurned());
  EXPECT_EQ(treasury.ledger().TotalBalance(), Money());
}

FederatedBid SampleBid(const std::string& team, const std::string& home) {
  FederatedBid bid;
  bid.team = team;
  bid.tag = "rollout";
  bid.quantity = cluster::TaskShape{16.0, 64.0, 2.0};
  bid.limit = 20000.0;
  bid.home_shard = home;
  return bid;
}

// --------------------------------------------- checkpoint / restore (1) --

TEST(SnapshotRoundTripTest, ByteIdenticalAcrossScenarioLibrary) {
  // Property: for every market configuration the scenario library ships
  // (outcome feedback, refund gates, move billing, treasuries...), a
  // shard snapshotted after two epochs restores byte-identically into a
  // freshly built twin, and the twin replays the next epoch bit for bit.
  for (const scenario::ScenarioSpec& spec : scenario::ScenarioLibrary()) {
    SCOPED_TRACE(spec.name);
    FederatedExchange original(spec.shards, spec.federation);
    original.RunEpoch();
    original.RunEpoch();

    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t k = 0; k < original.NumShards(); ++k) {
      frames.push_back(original.ShardMarket(k).Snapshot());
    }

    FederatedExchange twin(spec.shards, spec.federation);
    for (std::size_t k = 0; k < twin.NumShards(); ++k) {
      twin.ShardMarket(k).Restore(frames[k]);
      EXPECT_EQ(twin.ShardMarket(k).Snapshot(), frames[k])
          << "shard " << k << " did not round-trip byte-identically";
    }

    const FederationReport a = original.RunEpoch();
    // The twin's epoch counter is 0, but shard markets carry all the
    // state that matters: the next auction must be bit-identical.
    const FederationReport b = twin.RunEpoch();
    ASSERT_EQ(a.shards.size(), b.shards.size());
    EXPECT_EQ(a.total_bids, b.total_bids);
    EXPECT_EQ(a.total_winners, b.total_winners);
    EXPECT_EQ(a.operator_revenue, b.operator_revenue);
    EXPECT_EQ(a.max_rounds, b.max_rounds);
    for (std::size_t k = 0; k < a.shards.size(); ++k) {
      EXPECT_EQ(a.shards[k].report.settled_prices,
                b.shards[k].report.settled_prices)
          << "shard " << k << " diverged after restore";
    }
  }
}

TEST(SnapshotRoundTripTest, CrashedShardRestoredBitIdentically) {
  FederationConfig config;
  config.seed = 77;
  config.supervisor.enabled = true;
  FederatedExchange fed(ThreeShards(), config);
  fed.RunEpoch();

  // The epoch-boundary state the supervisor's checkpoint must preserve.
  const std::vector<std::uint8_t> boundary = fed.ShardMarket(0).Snapshot();

  fed.InjectShardFailure(0);
  const FederationReport report = fed.RunEpoch();
  ASSERT_TRUE(report.shards[0].failed);
  EXPECT_EQ(report.health.restored_checkpoints, 1u);

  // Containment rolled the shard back to the exact bytes it entered the
  // epoch with — the crash left no trace.
  EXPECT_EQ(fed.ShardMarket(0).Snapshot(), boundary);

  // And the shard rejoins: next epoch it participates and heals.
  const FederationReport next = fed.RunEpoch();
  EXPECT_TRUE(next.shards[0].participated);
  EXPECT_FALSE(next.shards[0].failed);
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kHealthy);
}

TEST(SnapshotRoundTripTest, CrashedShardsRestoredIdenticallyOnFourThreads) {
  // Three epochs at `threads`, with shards 0 and 2 crashing in the last
  // (their checkpoints were written into the previous epoch's frames);
  // returns every shard's frame afterwards.
  const auto run = [](std::size_t threads) {
    FederationConfig config;
    config.seed = 77;
    config.num_threads = threads;
    config.supervisor.enabled = true;
    FederatedExchange fed(ThreeShards(), config);
    fed.RunEpoch();
    fed.RunEpoch();
    std::vector<std::vector<std::uint8_t>> boundary;
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      boundary.push_back(fed.ShardMarket(k).Snapshot());
    }
    fed.InjectShardFailure(0);
    fed.InjectShardFailure(2);
    const FederationReport report = fed.RunEpoch();
    EXPECT_TRUE(report.shards[0].failed);
    EXPECT_FALSE(report.shards[1].failed);
    EXPECT_TRUE(report.shards[2].failed);
    EXPECT_EQ(report.health.restored_checkpoints, 2u);
    std::vector<std::vector<std::uint8_t>> after;
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      after.push_back(fed.ShardMarket(k).Snapshot());
    }
    EXPECT_EQ(after[0], boundary[0]) << threads << " threads";
    EXPECT_EQ(after[2], boundary[2]) << threads << " threads";
    return after;
  };
  EXPECT_EQ(run(4), run(0));
}

// ------------------------------------------------ epoch supervision (2) --

TEST(SupervisorTest, ContainsInjectedCrashAndConservesMoney) {
  FederationConfig config;
  config.seed = 11;
  config.supervisor.enabled = true;
  config.economy.treasury = true;
  FederatedExchange fed(ThreeShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(50000));
  fed.RunEpoch();

  fed.InjectShardFailure(1);
  const FederationReport report = fed.RunEpoch();

  // The planet epoch completed: healthy shards ran and aggregated.
  EXPECT_TRUE(report.shards[0].participated);
  EXPECT_FALSE(report.shards[0].failed);
  EXPECT_GT(report.total_bids, 0u);

  // The crash was contained and audited.
  EXPECT_TRUE(report.health.supervised);
  EXPECT_EQ(report.health.failed_shards, 1u);
  EXPECT_EQ(report.health.restored_checkpoints, 1u);
  EXPECT_TRUE(report.shards[1].failed);
  EXPECT_FALSE(report.shards[1].failure.empty());
  EXPECT_EQ(fed.ShardHealthOf(1).status, ShardHealth::kDegraded);
  EXPECT_EQ(fed.ShardHealthOf(1).failure_streak, 1);

  // The dead shard's float was refunded, not swept as spend: every
  // float is zero between epochs and the planet ledger still balances.
  ASSERT_NE(fed.treasury(), nullptr);
  EXPECT_GT(report.health.refunded_allowance, 0.0);
  for (std::size_t k = 0; k < fed.NumShards(); ++k) {
    EXPECT_EQ(fed.treasury()->ShardFloat(k), Money()) << "shard " << k;
    EXPECT_EQ(fed.treasury()->Outstanding("globex", k), Money());
  }
  ExpectConserved(*fed.treasury());
}

TEST(SupervisorTest, RoundBudgetOverrunIsContained) {
  FederationConfig config;
  config.seed = 13;
  config.supervisor.enabled = true;
  FederatedExchange fed(ThreeShards(), config);
  fed.RunEpoch();

  // A zero-round budget is never enough: the virtual-time epoch
  // deadline fires and the supervisor books a contained failure.
  fed.InjectEpochRoundBudget(2, 0);
  const FederationReport report = fed.RunEpoch();
  EXPECT_EQ(report.health.failed_shards, 1u);
  EXPECT_TRUE(report.shards[2].failed);
  EXPECT_NE(report.shards[2].failure.find("budget"), std::string::npos);

  // A generous budget is not a failure.
  fed.InjectEpochRoundBudget(2, 1 << 20);
  EXPECT_EQ(fed.RunEpoch().health.failed_shards, 0u);
}

TEST(SupervisorTest, FailedShardBidsAreRerouted) {
  FederationConfig config;
  config.seed = 17;
  config.supervisor.enabled = true;
  config.router.policy = RoutingPolicy::kHomeAffinity;
  config.router.spill_threshold = 1e9;  // Pin bids to their home shard.
  FederatedExchange fed(ThreeShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(50000));

  fed.SubmitFederatedBid(SampleBid("globex", "region-0"));
  fed.InjectShardFailure(0);
  const FederationReport report = fed.RunEpoch();

  // The bid died with its shard; the original federated bid went back
  // in the queue for the next epoch's routing pass.
  EXPECT_EQ(report.health.rerouted_bids, 1u);
  EXPECT_EQ(fed.PendingFederatedBids(), 1u);

  // Next epoch the bid routes and clears somewhere healthy.
  const FederationReport next = fed.RunEpoch();
  EXPECT_EQ(next.routed.size(), 1u);
  EXPECT_EQ(fed.PendingFederatedBids(), 0u);
}

TEST(SupervisorTest, UnsupervisedCrashSweepsTreasuryBeforePropagating) {
  // The exception-safety regression: without a supervisor a throwing
  // shard used to leave this epoch's allowances stranded in shard
  // floats. The treasury sweep must reconcile every float before the
  // failure escapes RunEpoch.
  FederationConfig config;
  config.seed = 19;
  config.economy.treasury = true;
  FederatedExchange fed(ThreeShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(50000));
  fed.RunEpoch();

  fed.InjectShardFailure(1);
  EXPECT_THROW(fed.RunEpoch(), CheckFailure);
  // Only the epochs before the failing one commit to History().
  EXPECT_EQ(fed.EpochCount(), 1);

  ASSERT_NE(fed.treasury(), nullptr);
  EXPECT_EQ(fed.treasury()->FloatTotal(), Money());
  for (std::size_t k = 0; k < fed.NumShards(); ++k) {
    EXPECT_EQ(fed.treasury()->Outstanding("globex", k), Money());
  }
  ExpectConserved(*fed.treasury());

  // The injection was one-shot: the propagated failure consumed it, so
  // the next epoch runs clean.
  EXPECT_NO_THROW(fed.RunEpoch());
  EXPECT_EQ(fed.EpochCount(), 2);
}

TEST(SupervisorTest, UnsupervisedFailureIsIndependentOfThreadCount) {
  // Without a supervisor every shard still clears and then the failure
  // with the lowest shard index propagates, so the error, the planet
  // ledger and every shard's state are the same serially (num_threads 0)
  // and on a pool (4), whichever failing shard finishes first.
  struct Outcome {
    std::string error;
    std::vector<std::string> transfers;
    std::vector<std::vector<std::uint8_t>> snapshots;
    Money float_total;
  };
  const auto run = [](std::size_t num_threads) {
    std::vector<ShardSpec> specs = ThreeShards();
    specs.push_back(specs.back());
    specs.back().name = "region-3";
    FederationConfig config;
    config.seed = 29;
    config.num_threads = num_threads;
    config.economy.treasury = true;
    FederatedExchange fed(std::move(specs), config);
    fed.EndowFederatedTeam("globex", Money::FromDollars(50000));
    fed.InjectShardFailure(1);
    fed.InjectShardFailure(2);
    Outcome out;
    try {
      fed.RunEpoch();
    } catch (const CheckFailure& e) {
      out.error = e.what();
    }
    for (const CrossShardTransfer& t : fed.treasury()->Transfers()) {
      out.transfers.push_back(
          std::to_string(static_cast<int>(t.kind)) + " " +
          std::to_string(t.epoch) + " " + t.team + " " +
          std::to_string(t.shard) + " " +
          std::to_string(t.amount.micros()));
    }
    for (std::size_t k = 0; k < fed.NumShards(); ++k) {
      out.snapshots.push_back(fed.ShardMarket(k).Snapshot());
    }
    out.float_total = fed.treasury()->FloatTotal();
    return out;
  };
  const Outcome serial = run(0);
  const Outcome pooled = run(4);
  EXPECT_NE(serial.error.find("shard 1 ('region-1')"), std::string::npos)
      << serial.error;
  EXPECT_EQ(pooled.error, serial.error);
  EXPECT_EQ(pooled.transfers, serial.transfers);
  ASSERT_EQ(serial.snapshots.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(pooled.snapshots[k] == serial.snapshots[k]) << "shard " << k;
  }
  EXPECT_EQ(serial.float_total, Money());
  EXPECT_EQ(pooled.float_total, Money());
}

// ------------------------------------------------- health machine (3) --

TEST(HealthMachineTest, QuarantineBackoffRecoveryCycle) {
  FederationConfig config;
  config.seed = 23;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 2;
  FederatedExchange fed(ThreeShards(), config);

  // Two consecutive crashes: degraded, then quarantined with backoff.
  fed.InjectShardFailure(0);
  fed.RunEpoch();
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kDegraded);
  EXPECT_EQ(fed.ShardHealthOf(0).failure_streak, 1);

  fed.InjectShardFailure(0);
  fed.RunEpoch();
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kQuarantined);
  EXPECT_EQ(fed.ShardHealthOf(0).failure_streak, 2);
  EXPECT_EQ(fed.ShardHealthOf(0).backoff_remaining, 1);
  EXPECT_EQ(fed.ShardHealthOf(0).quarantine_count, 1);

  // Backoff epoch: the shard sits the round out entirely.
  const FederationReport benched = fed.RunEpoch();
  EXPECT_FALSE(benched.shards[0].participated);
  EXPECT_EQ(benched.health.quarantined_shards, 1u);
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kQuarantined);
  EXPECT_EQ(fed.ShardHealthOf(0).backoff_remaining, 0);

  // Probation epoch: the shard retries, clears cleanly, and heals.
  const FederationReport probation = fed.RunEpoch();
  EXPECT_TRUE(probation.shards[0].participated);
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kHealthy);
  EXPECT_EQ(fed.ShardHealthOf(0).failure_streak, 0);
  EXPECT_EQ(fed.ShardHealthOf(0).retries, 1);
}

TEST(HealthMachineTest, FailedProbationDoublesBackoff) {
  FederationConfig config;
  config.seed = 29;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 2;
  FederatedExchange fed(ThreeShards(), config);

  fed.InjectShardFailure(0);
  fed.RunEpoch();
  fed.InjectShardFailure(0);
  fed.RunEpoch();                  // Quarantined, backoff 1.
  fed.RunEpoch();                  // Benched; backoff drains to 0.
  fed.InjectShardFailure(0);       // Crash again during probation...
  fed.RunEpoch();
  // ...and the streak never reset, so it re-quarantines immediately
  // with the backoff doubled.
  EXPECT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kQuarantined);
  EXPECT_EQ(fed.ShardHealthOf(0).backoff_remaining, 2);
  EXPECT_EQ(fed.ShardHealthOf(0).quarantine_count, 2);
}

TEST(HealthMachineTest, BackoffSaturatesAtTheCap) {
  FederationConfig config;
  config.seed = 29;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;  // Every crash quarantines.
  FederatedExchange fed(ThreeShards(), config);

  std::vector<int> backoffs;
  for (int quarantine = 0; quarantine < 5; ++quarantine) {
    // Crash the shard in every epoch it takes part in: the first one,
    // then each probation epoch after its backoff drains.
    fed.InjectShardFailure(0);
    ASSERT_TRUE(fed.RunEpoch().shards[0].participated);
    ASSERT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kQuarantined);
    backoffs.push_back(fed.ShardHealthOf(0).backoff_remaining);
    for (int e = 0; e < backoffs.back(); ++e) {
      EXPECT_FALSE(fed.RunEpoch().shards[0].participated);
    }
  }
  EXPECT_EQ(backoffs, (std::vector<int>{1, 2, 4, 8, 8}));
  EXPECT_EQ(fed.ShardHealthOf(0).quarantine_count, 5);
}

TEST(HealthMachineTest, QuarantinedShardIsNotQuotedByRouter) {
  FederationConfig config;
  config.seed = 31;
  config.supervisor.enabled = true;
  config.supervisor.quarantine_streak = 1;  // One strike quarantines.
  FederatedExchange fed(ThreeShards(), config);
  fed.EndowFederatedTeam("globex", Money::FromDollars(50000));

  fed.InjectShardFailure(0);
  fed.RunEpoch();
  ASSERT_EQ(fed.ShardHealthOf(0).status, ShardHealth::kQuarantined);

  // A home-affinity bid for the quarantined shard must spill elsewhere
  // rather than strand.
  fed.SubmitFederatedBid(SampleBid("globex", "region-0"));
  const FederationReport report = fed.RunEpoch();
  ASSERT_EQ(report.routed.size(), 1u);
  EXPECT_NE(report.routed.front().shard, 0u);
}

TEST(SupervisorTest, IdleSupervisorIsBitIdenticalToUnsupervised) {
  // Config-gating contract: a supervisor that never fires must not
  // perturb one bit of the market outcomes.
  FederationConfig off;
  off.seed = 37;
  off.economy.treasury = true;
  FederationConfig on = off;
  on.supervisor.enabled = true;

  FederatedExchange a(ThreeShards(), off);
  FederatedExchange b(ThreeShards(), on);
  a.EndowFederatedTeam("globex", Money::FromDollars(50000));
  b.EndowFederatedTeam("globex", Money::FromDollars(50000));
  a.SubmitFederatedBid(SampleBid("globex", "region-1"));
  b.SubmitFederatedBid(SampleBid("globex", "region-1"));

  for (int epoch = 0; epoch < 3; ++epoch) {
    const FederationReport ra = a.RunEpoch();
    const FederationReport rb = b.RunEpoch();
    EXPECT_EQ(ra.total_bids, rb.total_bids);
    EXPECT_EQ(ra.operator_revenue, rb.operator_revenue);
  }
  for (std::size_t k = 0; k < a.NumShards(); ++k) {
    EXPECT_EQ(a.ShardMarket(k).Snapshot(), b.ShardMarket(k).Snapshot());
  }
}

// ------------------------------------- crash + lossy wire acceptance (4) --

scenario::ScenarioSpec LossyOutageSpec() {
  scenario::ScenarioSpec spec =
      scenario::FindScenario("outage-during-price-war");
  spec.federation.proxy_nodes_per_shard = 2;
  spec.federation.wire_faults.drop = 0.05;
  spec.federation.wire_faults.duplicate = 0.05;
  spec.federation.wire_faults.delay_window = 2;
  spec.federation.wire_faults.max_retries = 8;
  spec.federation.wire_faults.seed = 4242;
  return spec;
}

TEST(AcceptanceTest, CrashDuringPriceWarOnLossyWire) {
  // The PR's headline path: one shard crashes twice mid-price-war while
  // every shard clears over a lossy proxy wire. The run must complete
  // with the refund identity intact every epoch, the ledger conserved,
  // full recovery by the final epoch, and byte-identical metrics JSON
  // across reruns and thread counts.
  scenario::RunnerConfig config;
  config.seed = 20090425;
  scenario::ScenarioRunner serial(LossyOutageSpec(), config);
  const scenario::ScenarioMetrics m1 = serial.Run();

  EXPECT_TRUE(m1.slos_evaluated);
  EXPECT_TRUE(m1.slo_pass) << m1.ToJson();
  EXPECT_EQ(m1.shard_failures, 2u);
  EXPECT_EQ(m1.checkpoint_restores, 2u);
  EXPECT_LE(m1.max_treasury_residual, 1e-6);
  const scenario::EpochSample& last = m1.series.back();
  EXPECT_EQ(last.failed_shards, 0u);
  EXPECT_EQ(last.quarantined_shards, 0u);
  for (const scenario::EpochSample& sample : m1.series) {
    const double gap = std::abs(sample.awarded_units - sample.placed_units -
                                sample.refunded_units);
    EXPECT_LE(gap, 1e-9 * std::max(1.0, sample.awarded_units))
        << "epoch " << sample.epoch;
  }

  // Rerun, and rerun on four threads: byte-identical JSON.
  scenario::ScenarioRunner rerun(LossyOutageSpec(), config);
  EXPECT_EQ(m1.ToJson(), rerun.Run().ToJson());
  config.num_threads = 4;
  scenario::ScenarioRunner threaded(LossyOutageSpec(), config);
  EXPECT_EQ(m1.ToJson(), threaded.Run().ToJson());
}

}  // namespace
}  // namespace pm::federation
