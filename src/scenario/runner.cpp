#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/job.h"
#include "common/check.h"
#include "common/table.h"

namespace pm::scenario {
namespace {

/// Salt decorrelating event streams from the federation's shard streams
/// (which expand `seed ^ golden·(k+1)` directly — see
/// FederatedExchange::ShardWorkloadSeed). Any event index therefore
/// draws from a different SplitMix64 orbit than any shard index.
constexpr std::uint64_t kEventSalt = 0x5cea4210e7e47a1dULL;

/// Max tolerated |Σ accounts − (minted − burned)| on the planet ledger,
/// dollars (checked whenever the treasury is on).
constexpr double kConservationTolerance = 1e-6;

/// Max tolerated RELATIVE per-epoch unit gap
/// |awarded − placed − refunded| / max(1, awarded) — normalized so the
/// identity check means the same thing for 10-unit and 10k-unit epochs.
/// Checked whenever the shards refund unplaced awards.
constexpr double kRefundIdentityTolerance = 1e-9;

/// `count` distinct indices in [0, n), sampled by rejection from the
/// event's stream (deterministic; the index spaces here are small).
std::vector<std::size_t> SampleDistinct(RandomStream& rng,
                                        std::size_t count, std::size_t n) {
  std::vector<std::size_t> picked;
  std::vector<bool> taken(n, false);
  while (picked.size() < count) {
    const std::size_t i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    if (taken[i]) continue;
    taken[i] = true;
    picked.push_back(i);
  }
  return picked;
}

/// The approximate fixed-price cost of a requirement (unit costs dotted
/// with the shape) — cohort bid limits anchor on it.
double FixedCostOf(const cluster::TaskShape& shape) {
  return cluster::Dot(shape, agents::kUnitCosts);
}

}  // namespace

std::uint64_t ScenarioRunner::EventSeed(std::uint64_t root,
                                        std::size_t index) {
  SplitMix64 mix(root ^ kEventSalt ^
                 (0x9e3779b97f4a7c15ULL *
                  (static_cast<std::uint64_t>(index) + 1)));
  return mix.Next();
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, RunnerConfig config)
    : spec_(std::move(spec)), config_(config) {
  PM_CHECK_MSG(!spec_.shards.empty(),
               "scenario '" << spec_.name << "' has no shards");
  epochs_ = config_.epochs > 0 ? config_.epochs : kDefaultEpochs;
  PM_CHECK_MSG(epochs_ > 0, "scenario needs at least one epoch");
  for (const ScenarioEvent& event : spec_.events) {
    const std::string problem =
        ValidateEvent(event, spec_.shards.size());
    PM_CHECK_MSG(problem.empty(),
                 "scenario '" << spec_.name << "': " << problem);
  }
  // One root seed drives the whole run: the federation derives its shard
  // streams from it, the events their private streams (EventSeed).
  spec_.federation.seed = config_.seed;
  spec_.federation.num_threads = config_.num_threads;
  exchange_ = std::make_unique<federation::FederatedExchange>(
      spec_.shards, spec_.federation);
  ScheduleTimeline();
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::ScheduleTimeline() {
  // Timeline order == event-list order for same-epoch events (the queue
  // is FIFO among equal timestamps).
  for (std::size_t i = 0; i < spec_.events.size(); ++i) {
    queue_.ScheduleAtEpoch(spec_.events[i].epoch, [this, i] { Fire(i); });
  }
}

void ScenarioRunner::Fire(std::size_t event_index) {
  ++events_fired_;
  switch (spec_.events[event_index].kind) {
    case EventKind::kDemandShock:
      return FireDemandShock(event_index);
    case EventKind::kFlashCrowd:
      return SpawnCohort(event_index, "flash");
    case EventKind::kShardOutage:
      return FireShardOutage(event_index);
    case EventKind::kPriceWar:
      return SpawnCohort(event_index, "war");
    case EventKind::kCapacityExpansion:
      return FireCapacityExpansion(event_index);
    case EventKind::kChurnWave:
      return FireChurnWave(event_index);
    case EventKind::kShardCrash:
      return FireShardCrash(event_index);
  }
}

void ScenarioRunner::FireShardCrash(std::size_t event_index) {
  const ScenarioEvent& event = spec_.events[event_index];
  // Injections are one-shot (consumed by the epoch that runs them), so a
  // multi-epoch crash window re-injects before each covered epoch.
  const auto inject = [this, shard = event.shard, count = event.count] {
    if (count > 0) {
      exchange_->InjectEpochRoundBudget(shard, count);
    } else {
      exchange_->InjectShardFailure(shard);
    }
  };
  inject();
  for (int e = 1; e < event.duration; ++e) {
    queue_.ScheduleAtEpoch(event.epoch + e, inject);
  }
}

void ScenarioRunner::FireDemandShock(std::size_t event_index) {
  const ScenarioEvent& event = spec_.events[event_index];
  agents::World& world = exchange_->MutableShardWorld(event.shard);
  RandomStream rng(EventSeed(config_.seed, event_index));

  std::vector<std::size_t> picked;
  if (event.count == 0 ||
      static_cast<std::size_t>(event.count) >= world.agents.size()) {
    picked.resize(world.agents.size());
    for (std::size_t a = 0; a < picked.size(); ++a) picked[a] = a;
  } else {
    picked = SampleDistinct(rng, static_cast<std::size_t>(event.count),
                            world.agents.size());
  }

  // Shocks compose: each covered team's rate is base × Π(active
  // multipliers), with `base` captured when its first window opens.
  for (std::size_t a : picked) {
    ShockState& state = shocks_[{event.shard, a}];
    agents::TeamProfile& profile = world.agents[a].mutable_profile();
    if (state.active == 0) state.base = profile.growth_rate;
    ++state.active;
    state.product *= event.magnitude;
    profile.growth_rate = state.base * state.product;
  }

  // The window closes: divide this shock back out and recompute from
  // base — so overlapping windows on one team unwind cleanly in any
  // order, and the last one to close restores `base` EXACTLY (no
  // accumulated rounding).
  queue_.ScheduleAtEpoch(
      event.epoch + event.duration,
      [this, shard = event.shard, magnitude = event.magnitude,
       picked = std::move(picked)] {
        agents::World& w = exchange_->MutableShardWorld(shard);
        for (std::size_t a : picked) {
          const auto it = shocks_.find({shard, a});
          PM_CHECK(it != shocks_.end() && it->second.active > 0);
          ShockState& state = it->second;
          --state.active;
          state.product /= magnitude;
          if (state.active == 0) {
            w.agents[a].mutable_profile().growth_rate = state.base;
            shocks_.erase(it);
          } else {
            w.agents[a].mutable_profile().growth_rate =
                state.base * state.product;
          }
        }
      });
}

void ScenarioRunner::SpawnCohort(std::size_t event_index,
                                 const char* prefix) {
  const ScenarioEvent& event = spec_.events[event_index];
  Cohort cohort;
  cohort.event_index = event_index;
  cohort.kind = event.kind;
  cohort.shard = event.shard;
  cohort.magnitude = event.magnitude;
  cohort.rng =
      std::make_unique<RandomStream>(EventSeed(config_.seed, event_index));
  for (int t = 0; t < event.count; ++t) {
    std::string team =
        std::string(prefix) + "-" + std::to_string(next_cohort_team_++);
    exchange_->EndowFederatedTeam(team, event.budget);
    cohort.teams.push_back(std::move(team));
  }
  cohort.active = true;
  cohorts_.push_back(std::move(cohort));

  const std::size_t cohort_index = cohorts_.size() - 1;
  queue_.ScheduleAtEpoch(event.epoch + event.duration,
                         [this, cohort_index] {
                           Cohort& c = cohorts_[cohort_index];
                           c.active = false;
                           for (const std::string& team : c.teams) {
                             exchange_->RetireFederatedTeam(team);
                           }
                         });
}

void ScenarioRunner::FireShardOutage(std::size_t event_index) {
  const ScenarioEvent& event = spec_.events[event_index];
  exchange::Market& market = exchange_->ShardMarket(event.shard);
  const std::vector<std::string> names = market.fleet().ClusterNames();
  if (names.size() <= 1) return;  // A previous outage already drained it.
  RandomStream rng(EventSeed(config_.seed, event_index));

  const std::size_t max_down = names.size() - 1;  // Never the last one.
  const std::size_t down = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(event.magnitude * static_cast<double>(max_down))),
      1, max_down);
  Outage outage;
  outage.shard = event.shard;
  for (std::size_t c : SampleDistinct(rng, down, names.size())) {
    outage.clusters.push_back(market.ExtractCluster(names[c]));
  }
  outages_.push_back(std::move(outage));

  // Recovery: the stored clusters come back whole (same names — their
  // pools stayed interned at zero capacity, so no new pool space).
  const std::size_t outage_index = outages_.size() - 1;
  queue_.ScheduleAtEpoch(event.epoch + event.duration,
                         [this, outage_index] {
                           Outage& o = outages_[outage_index];
                           exchange::Market& m =
                               exchange_->ShardMarket(o.shard);
                           for (cluster::Cluster& cl : o.clusters) {
                             m.AdoptCluster(std::move(cl));
                           }
                           o.clusters.clear();
                         });
}

void ScenarioRunner::FireCapacityExpansion(std::size_t event_index) {
  const ScenarioEvent& event = spec_.events[event_index];
  const cluster::TaskShape machine = agents::kMachineShape * event.magnitude;
  cluster::Cluster fresh = cluster::Cluster::Homogeneous(
      "exp" + std::to_string(event_index) + "@" +
          exchange_->ShardName(event.shard),
      event.count, machine);
  exchange_->ShardMarket(event.shard).AdoptCluster(std::move(fresh));
}

void ScenarioRunner::FireChurnWave(std::size_t event_index) {
  const ScenarioEvent& event = spec_.events[event_index];
  agents::World& world = exchange_->MutableShardWorld(event.shard);
  exchange::Market& market = exchange_->ShardMarket(event.shard);

  // Burst quota by operator fiat (the Grant source quota.h names):
  // resident entitlements sit at exactly what each team runs, so without
  // a grant the §I admission check would reject every wave arrival. The
  // headroom stays after the wave — churn-launched services are real
  // workloads, not loans.
  const cluster::TaskShape burst{160.0, 960.0, 24.0};
  cluster::QuotaTable& quota = market.mutable_quota();
  const PoolRegistry& registry = world.fleet.registry();
  for (const agents::TeamAgent& agent : world.agents) {
    const agents::TeamProfile& profile = agent.profile();
    for (ResourceKind kind : kAllResourceKinds) {
      const auto pool =
          registry.Find(PoolKey{profile.home_cluster, kind});
      if (pool.has_value()) {
        quota.Grant(profile.name, *pool, burst.Of(kind));
      }
    }
  }

  exchange::ChurnConfig churn;
  churn.arrival_rate = event.magnitude;  // Jobs per epoch of sim time.
  // Lifetimes short enough that departures land inside the window, so a
  // wave is genuine churn (arrivals AND departures), not a pure ramp.
  churn.mean_lifetime = std::max(0.5, 0.5 * event.duration);
  churn.seed = EventSeed(config_.seed, event_index);
  churn_.push_back(ChurnWave{std::make_unique<exchange::ChurnProcess>(
      queue_, &world.fleet, &world.agents, churn,
      &market.mutable_quota())});

  const std::size_t wave_index = churn_.size() - 1;
  queue_.ScheduleAtEpoch(
      event.epoch + event.duration,
      [this, wave_index] { churn_[wave_index].process->Stop(); });
}

void ScenarioRunner::SubmitCohortBids() {
  for (Cohort& cohort : cohorts_) {
    if (!cohort.active) continue;
    for (const std::string& team : cohort.teams) {
      federation::FederatedBid bid;
      bid.team = team;
      cluster::TaskShape quantity;
      if (cohort.kind == EventKind::kFlashCrowd) {
        // A newcomer's deployment: ~magnitude CPUs with RAM/disk in
        // commodity proportion, jittered per team per epoch.
        bid.tag = "flash";
        quantity.cpu = cohort.magnitude * cohort.rng->Uniform(0.8, 1.2);
        quantity.ram_gb = 4.0 * quantity.cpu;
        quantity.disk_tb = 0.05 * quantity.cpu;
        bid.limit = FixedCostOf(quantity) * 2.5;
      } else {
        // An aggressor: moderate size, outsized limit, pinned to the
        // contested shard (home-affinity routing keeps it there until
        // the shard runs extremely hot).
        bid.tag = "war";
        quantity.cpu = 16.0 * cohort.rng->Uniform(0.8, 1.2);
        quantity.ram_gb = 4.0 * quantity.cpu;
        quantity.disk_tb = 0.05 * quantity.cpu;
        bid.limit = FixedCostOf(quantity) * cohort.magnitude;
        bid.home_shard = exchange_->ShardName(cohort.shard);
      }
      exchange_->SubmitFederatedBid(std::move(bid));
    }
  }
}

double ScenarioRunner::TreasuryResidual() const {
  const federation::FederationTreasury* treasury = exchange_->treasury();
  if (treasury == nullptr) return 0.0;
  const Money residual = treasury->CirculatingSupply() -
                         (treasury->TotalMinted() - treasury->TotalBurned());
  return std::abs(residual.ToDouble());
}

std::size_t ScenarioRunner::TotalPools() const {
  std::size_t pools = 0;
  for (std::size_t k = 0; k < exchange_->NumShards(); ++k) {
    pools += exchange_->ShardMarket(k).fleet().NumPools();
  }
  return pools;
}

long long ScenarioRunner::ChurnStarted() const {
  long long started = 0;
  for (const ChurnWave& wave : churn_) {
    started += wave.process->stats().jobs_started;
  }
  return started;
}

ScenarioMetrics ScenarioRunner::Run() {
  PM_CHECK_MSG(!ran_, "ScenarioRunner::Run is one-shot");
  ran_ = true;

  ScenarioMetrics metrics;
  metrics.scenario = spec_.name;
  metrics.seed = config_.seed;
  metrics.epochs = epochs_;
  metrics.num_shards = spec_.shards.size();

  for (int e = 0; e < epochs_; ++e) {
    // Due events first: epoch e's shocks land before epoch e's auctions.
    queue_.RunUntil(static_cast<sim::SimTime>(e));
    SubmitCohortBids();
    const federation::FederationReport& report = exchange_->RunEpoch();
    metrics.series.push_back(SampleEpoch(report, events_fired_,
                                         TreasuryResidual(), TotalPools(),
                                         ChurnStarted()));
  }

  for (const EpochSample& sample : metrics.series) {
    metrics.refund_total += sample.refund_total;
    metrics.awarded_units += sample.awarded_units;
    metrics.placed_units += sample.placed_units;
    metrics.refunded_units += sample.refunded_units;
    metrics.move_billing_total += sample.move_billing_total;
    metrics.placement_failures += sample.placement_failures;
    metrics.peak_clearing_spread =
        std::max(metrics.peak_clearing_spread, sample.clearing_spread);
    metrics.max_treasury_residual =
        std::max(metrics.max_treasury_residual, sample.treasury_residual);
    metrics.shard_failures += sample.failed_shards;
    metrics.checkpoint_restores += sample.restored_checkpoints;
  }

  EvaluateSlos(metrics);
  return metrics;
}

void ScenarioRunner::EvaluateSlos(ScenarioMetrics& metrics) const {
  const SloPolicy& slo = spec_.slo;
  if (epochs_ < slo.min_epochs) {
    // A truncated run (the 1-epoch CI smokes) has not played the
    // timeline out; its assertions would be vacuous or wrong.
    metrics.slos_evaluated = false;
    metrics.slo_pass = true;
    return;
  }
  metrics.slos_evaluated = true;

  const auto check = [&metrics](const std::string& name, bool pass,
                                std::string detail) {
    metrics.slos.push_back(SloResult{name, pass, std::move(detail)});
    metrics.slo_pass = metrics.slo_pass && pass;
  };

  if (exchange_->treasury() != nullptr) {
    check("treasury-conservation",
          metrics.max_treasury_residual <= kConservationTolerance,
          "max residual $" + FormatF(metrics.max_treasury_residual, 6) +
              " <= $" + FormatF(kConservationTolerance, 6));
  }

  bool refunds_on = false;
  for (const federation::ShardSpec& shard : spec_.shards) {
    refunds_on = refunds_on || shard.market.settlement.refund_unplaced;
  }
  if (refunds_on) {
    double worst = 0.0;
    for (const EpochSample& sample : metrics.series) {
      const double gap = std::abs(sample.awarded_units -
                                  sample.placed_units -
                                  sample.refunded_units);
      worst = std::max(
          worst, gap / std::max(1.0, sample.awarded_units));
    }
    check("awarded-equals-placed-plus-refunded",
          worst <= kRefundIdentityTolerance,
          "worst relative gap " + FormatF(worst, 9) + " <= " +
              FormatF(kRefundIdentityTolerance, 9));
  }

  if (slo.require_all_converged) {
    bool all = true;
    for (const EpochSample& sample : metrics.series) {
      all = all && sample.all_converged;
    }
    check("all-epochs-converged", all,
          all ? "every epoch converged" : "an epoch failed to converge");
  }
  if (slo.expect_refunds) {
    check("refunds-nonzero", metrics.refund_total > 0.0,
          "refund total $" + FormatF(metrics.refund_total, 2) + " > 0");
  }
  if (slo.expect_placement_failures) {
    check("placement-failures-nonzero", metrics.placement_failures > 0,
          std::to_string(metrics.placement_failures) + " failures > 0");
  }
  if (slo.expect_pool_growth) {
    const std::size_t first = metrics.series.front().total_pools;
    const std::size_t last = metrics.series.back().total_pools;
    check("pool-space-grew", last > first,
          std::to_string(first) + " -> " + std::to_string(last) +
              " pools");
  }
  if (slo.expect_churn) {
    const long long started = metrics.series.back().churn_started;
    check("churn-started", started > 0,
          std::to_string(started) + " churn jobs > 0");
  }
  if (slo.expect_move_billing) {
    check("move-billing-nonzero", metrics.move_billing_total > 0.0,
          "move bills $" + FormatF(metrics.move_billing_total, 2) +
              " > 0");
  }
  if (slo.expect_shard_failures) {
    check("shard-failures-contained", metrics.shard_failures > 0,
          std::to_string(metrics.shard_failures) +
              " contained failures > 0");
  }
  if (slo.expect_checkpoint_restores) {
    check("checkpoint-restores-nonzero",
          metrics.checkpoint_restores > 0,
          std::to_string(metrics.checkpoint_restores) + " restores > 0");
  }
  if (slo.require_full_recovery) {
    const EpochSample& last = metrics.series.back();
    const bool recovered =
        last.failed_shards == 0 && last.quarantined_shards == 0;
    check("full-recovery", recovered,
          recovered ? "final epoch ran with every shard participating"
                    : "final epoch still had failed/quarantined shards");
  }
  if (slo.min_peak_clearing_spread > 0.0) {
    check("peak-clearing-spread",
          metrics.peak_clearing_spread >= slo.min_peak_clearing_spread,
          "peak " + FormatF(metrics.peak_clearing_spread, 4) + " >= " +
              FormatF(slo.min_peak_clearing_spread, 4));
  }
  if (slo.min_peak_bids_ratio > 0.0) {
    const double base =
        std::max<double>(1.0, metrics.series.front().total_bids);
    double peak = 0.0;
    for (const EpochSample& sample : metrics.series) {
      peak = std::max(peak, static_cast<double>(sample.total_bids));
    }
    check("peak-bids-ratio", peak / base >= slo.min_peak_bids_ratio,
          "peak/base " + FormatF(peak / base, 3) + " >= " +
              FormatF(slo.min_peak_bids_ratio, 3));
  }
  if (slo.min_peak_revenue_ratio > 0.0) {
    const double base =
        std::max(1.0, metrics.series.front().operator_revenue);
    double peak = 0.0;
    for (const EpochSample& sample : metrics.series) {
      peak = std::max(peak, sample.operator_revenue);
    }
    check("peak-revenue-ratio", peak / base >= slo.min_peak_revenue_ratio,
          "peak/base " + FormatF(peak / base, 3) + " >= " +
              FormatF(slo.min_peak_revenue_ratio, 3));
  }

  // Watchdog assertions: a scenario fails on a MISSING expected alert
  // and on a SPURIOUS forbidden one. Asserting without an armed alert
  // engine is a spec bug — fail loudly rather than skipping silently.
  if (!slo.expect_alerts.empty() || !slo.forbid_alerts.empty()) {
    const telemetry::Telemetry* tel = exchange_->telemetry();
    const telemetry::AlertEngine* alerts =
        tel == nullptr ? nullptr : tel->alerts();
    if (alerts == nullptr) {
      check("alert-engine-armed", false,
            "spec asserts alerts but telemetry.watchdog.alerts is off");
    } else {
      for (const std::string& name : slo.expect_alerts) {
        check("alert-fired:" + name, alerts->EverFired(name),
              "alert '" + name + "' must fire during the run");
      }
      for (const std::string& name : slo.forbid_alerts) {
        check("alert-silent:" + name, !alerts->EverFired(name),
              "alert '" + name + "' must never fire");
      }
    }
  }
}

}  // namespace pm::scenario
