// planetmarket: the scenario runner — deterministic trace-driven
// simulation of a federated market under scripted shocks.
//
// ScenarioRunner owns one FederatedExchange built from the spec's shard
// recipes and a sim::EventQueue in epoch time. Run() executes:
//
//   for each epoch e:
//     queue.RunUntil(e)      — due scenario events (and churn arrivals)
//                              mutate the exchange *before* the auctions;
//     cohort bids            — active flash-crowd / price-war cohorts
//                              submit their federated bids;
//     exchange.RunEpoch()    — every shard clears (concurrently when
//                              configured — bit-identical either way);
//     sample metrics         — one EpochSample per epoch.
//
// Determinism contract (the scenario extension of docs/federation.md):
// one root seed drives everything. The federation derives per-shard
// workload/market streams from it as before; scenario event i draws its
// private stream from EventSeed(root, i) — a SplitMix64 expansion salted
// so event streams never collide with shard streams. Events run on the
// main thread between epochs, so a scenario run is bit-identical across
// reruns AND across FederationConfig::num_threads settings; the metrics
// JSON of two same-seed runs is byte-equal (tests/scenario_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "exchange/churn.h"
#include "federation/federated_exchange.h"
#include "scenario/metrics.h"
#include "scenario/scenario.h"
#include "sim/event_queue.h"

namespace pm::scenario {

/// Runner knobs; everything else comes from the spec.
struct RunnerConfig {
  std::uint64_t seed = 20090425;  // Root seed (overrides the spec's).
  int epochs = 0;                 // 0: kDefaultEpochs.
  std::size_t num_threads = 0;    // Shard-auction concurrency.
};

/// Drives one scenario end to end.
class ScenarioRunner {
 public:
  ScenarioRunner(ScenarioSpec spec, RunnerConfig config);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Scenario event i's private seed: SplitMix64 expansion of the root,
  /// salted apart from FederatedExchange::Shard*Seed so event and shard
  /// streams can never collide.
  static std::uint64_t EventSeed(std::uint64_t root, std::size_t index);

  /// Executes every epoch and returns the run's metrics (also kept on
  /// the runner). Call once.
  ScenarioMetrics Run();

  const federation::FederatedExchange& exchange() const {
    return *exchange_;
  }
  int Epochs() const { return epochs_; }

 private:
  /// An injected federated-bidder cohort (flash crowd or price war),
  /// active from its event's epoch until epoch + duration.
  struct Cohort {
    std::size_t event_index = 0;
    EventKind kind = EventKind::kFlashCrowd;
    std::vector<std::string> teams;
    std::size_t shard = 0;      // Price war's target shard.
    double magnitude = 1.0;
    bool active = false;
    std::unique_ptr<RandomStream> rng;  // The event's private stream.
  };

  /// Clusters extracted by an in-flight outage, awaiting recovery.
  struct Outage {
    std::size_t shard = 0;
    std::vector<cluster::Cluster> clusters;
  };

  /// One team's demand-shock bookkeeping: the pre-shock growth rate and
  /// the product of the multipliers of every window currently covering
  /// it. Shocks compose multiplicatively while overlapped, and when the
  /// last window closes the rate snaps back to `base` exactly — two
  /// interleaved windows can never strand a stale multiplier.
  struct ShockState {
    double base = 0.0;
    double product = 1.0;
    int active = 0;
  };

  /// A churn wave's process (kept alive so departures keep draining
  /// after Stop()).
  struct ChurnWave {
    std::unique_ptr<exchange::ChurnProcess> process;
  };

  void ScheduleTimeline();
  void Fire(std::size_t event_index);

  // Per-kind handlers (Fire dispatches; end-effects self-schedule).
  void FireDemandShock(std::size_t event_index);
  void FireShardOutage(std::size_t event_index);
  void FireCapacityExpansion(std::size_t event_index);
  void FireChurnWave(std::size_t event_index);
  void FireShardCrash(std::size_t event_index);

  /// Shared flash-crowd / price-war lifecycle: endow `count` federated
  /// teams named "<prefix>-N", activate the cohort, and schedule its
  /// retirement (deactivate + RetireFederatedTeam each member) at the
  /// window end. The kinds differ only in how SubmitCohortBids sizes
  /// and routes their bids.
  void SpawnCohort(std::size_t event_index, const char* prefix);

  /// Active cohorts submit this epoch's federated bids (cohort creation
  /// order, then team order — deterministic).
  void SubmitCohortBids();

  double TreasuryResidual() const;
  std::size_t TotalPools() const;
  long long ChurnStarted() const;

  void EvaluateSlos(ScenarioMetrics& metrics) const;

  ScenarioSpec spec_;
  RunnerConfig config_;
  int epochs_ = 0;
  sim::EventQueue queue_;
  std::unique_ptr<federation::FederatedExchange> exchange_;
  std::vector<Cohort> cohorts_;
  std::vector<Outage> outages_;
  std::vector<ChurnWave> churn_;
  /// Active demand-shock state per (shard, agent index).
  std::map<std::pair<std::size_t, std::size_t>, ShockState> shocks_;
  std::size_t events_fired_ = 0;
  std::size_t next_cohort_team_ = 0;  // Unique-name counter for cohorts.
  bool ran_ = false;
};

}  // namespace pm::scenario
