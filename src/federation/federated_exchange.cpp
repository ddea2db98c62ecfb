#include "federation/federated_exchange.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "exchange/endowment.h"

namespace pm::federation {

std::uint64_t FederatedExchange::ShardWorkloadSeed(
    std::uint64_t federation_seed, std::size_t shard) {
  // One SplitMix64 stream per shard, decorrelated by the golden-ratio
  // increment — the same expansion the RNG layer uses for seeding.
  SplitMix64 mix(federation_seed ^
                 (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1)));
  return mix.Next();
}

std::uint64_t FederatedExchange::ShardMarketSeed(
    std::uint64_t federation_seed, std::size_t shard) {
  SplitMix64 mix(federation_seed ^
                 (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1)));
  mix.Next();  // Skip the workload seed.
  return mix.Next();
}

FederatedExchange::FederatedExchange(std::vector<ShardSpec> specs,
                                     FederationConfig config)
    : config_(std::move(config)) {
  PM_CHECK_MSG(!specs.empty(), "federation needs at least one shard");
  shards_.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ShardSpec& spec = specs[k];
    PM_CHECK_MSG(!spec.name.empty(), "shard " << k << " needs a name");
    for (std::size_t j = 0; j < k; ++j) {
      PM_CHECK_MSG(shards_[j]->name != spec.name,
                   "duplicate shard name '" << spec.name << "'");
    }
    spec.workload.seed = ShardWorkloadSeed(config_.seed, k);
    spec.market.seed = ShardMarketSeed(config_.seed, k);
    // The wire path is a federation-level decision; reject a per-shard
    // setting rather than silently overwriting it.
    PM_CHECK_MSG(spec.market.distributed_proxy_nodes == 0,
                 "set FederationConfig::proxy_nodes_per_shard, not "
                 "ShardSpec::market.distributed_proxy_nodes");
    spec.market.distributed_proxy_nodes = config_.proxy_nodes_per_shard;
    // Profiler wall channel: shard markets record collect/bisect/settle
    // spans into their reports; the barrier copies them into the
    // profiler. Wall-only — deterministic outputs are untouched.
    spec.market.phase_timings =
        config_.telemetry.enabled && config_.telemetry.profiler.wall_clock;
    PM_CHECK_MSG(!spec.market.wire_faults.Enabled(),
                 "set FederationConfig::wire_faults, not "
                 "ShardSpec::market.wire_faults");
    if (config_.wire_faults.Enabled()) {
      PM_CHECK_MSG(config_.proxy_nodes_per_shard > 0,
                   "wire_faults need a wire: set proxy_nodes_per_shard");
      spec.market.wire_faults = config_.wire_faults;
      // One fault-seed stream per shard, so shards draw decorrelated
      // fault patterns but each reproduces bit for bit.
      SplitMix64 mix(config_.wire_faults.seed ^
                     (0xbf58476d1ce4e5b9ULL *
                      (static_cast<std::uint64_t>(k) + 1)));
      spec.market.wire_faults.seed = mix.Next();
    }
    // Aggregate-init: World has no default constructor (Fleet is built
    // whole by the generator).
    auto shard = std::unique_ptr<Shard>(
        new Shard{spec.name, agents::GenerateWorld(spec.workload), nullptr});
    shard->market = std::make_unique<exchange::Market>(
        &shard->world.fleet, &shard->world.agents,
        shard->world.fixed_prices, spec.market);
    shards_.push_back(std::move(shard));
  }
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  if (config_.supervisor.enabled) {
    PM_CHECK_MSG(config_.supervisor.quarantine_streak >= 1 &&
                     config_.supervisor.backoff_base >= 1 &&
                     config_.supervisor.backoff_cap >=
                         config_.supervisor.backoff_base,
                 "supervisor: need quarantine_streak >= 1 and "
                 "1 <= backoff_base <= backoff_cap");
  }
  health_.resize(shards_.size());
  inject_fail_.assign(shards_.size(), 0);
  inject_round_budget_.assign(shards_.size(), -1);

  // Telemetry plane. Null when the gate is off, so every instrumentation
  // site in the epoch loop costs one pointer test and nothing else.
  if (config_.telemetry.enabled) {
    std::vector<std::string> names;
    names.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
      names.push_back(shard->name);
    }
    telemetry_ = std::make_unique<telemetry::Telemetry>(config_.telemetry,
                                                        std::move(names));
  }

  // Economy layer. Everything stays null when disabled so the epoch loop
  // below is byte-for-byte the PR 2 path.
  if (config_.economy.arbitrage.enabled) {
    PM_CHECK_MSG(config_.economy.treasury,
                 "arbitrage needs the treasury: its margin account is "
                 "planet currency (set EconomyConfig::treasury)");
  }
  if (config_.economy.treasury) {
    std::vector<std::string> names;
    names.reserve(shards_.size());
    for (const std::unique_ptr<Shard>& shard : shards_) {
      names.push_back(shard->name);
    }
    treasury_ = std::make_unique<FederationTreasury>(std::move(names));
  }
  if (config_.economy.arbitrage.enabled) {
    arbitrage_ = std::make_unique<ArbitrageAgent>(config_.economy.arbitrage);
    treasury_->Mint(arbitrage_->team(), config_.economy.arbitrage.margin,
                    "arbitrage margin account");
  }
  if (config_.economy.rebalance.enabled) {
    rebalancer_ = std::make_unique<FleetRebalancer>(
        config_.economy.rebalance, shards_.size());
  }
}

const std::string& FederatedExchange::ShardName(std::size_t shard) const {
  PM_CHECK(shard < shards_.size());
  return shards_[shard]->name;
}

exchange::Market& FederatedExchange::ShardMarket(std::size_t shard) {
  PM_CHECK(shard < shards_.size());
  return *shards_[shard]->market;
}

const exchange::Market& FederatedExchange::ShardMarket(
    std::size_t shard) const {
  PM_CHECK(shard < shards_.size());
  return *shards_[shard]->market;
}

const agents::World& FederatedExchange::ShardWorld(std::size_t shard) const {
  PM_CHECK(shard < shards_.size());
  return shards_[shard]->world;
}

agents::World& FederatedExchange::MutableShardWorld(std::size_t shard) {
  PM_CHECK(shard < shards_.size());
  return shards_[shard]->world;
}

Money FederatedExchange::RetireFederatedTeam(const std::string& team) {
  if (treasury_ != nullptr) {
    // Stop the epoch allowance first so a retire scheduled mid-run can
    // never race a later push for the same team.
    for (std::size_t i = 0; i < federated_teams_.size(); ++i) {
      if (federated_teams_[i].team == team) {
        federated_teams_.erase(federated_teams_.begin() +
                               static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    return treasury_->Burn(team, treasury_->PlanetBalance(team),
                           "retire federated team: " + team, EpochCount());
  }
  Money removed;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    removed += shard->market->WithdrawTeam(team, "retire federated team");
  }
  return removed;
}

std::vector<ShardView> FederatedExchange::BuildShardViews() const {
  std::vector<ShardView> views;
  views.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardView view;
    view.name = shard->name;
    view.registry = &shard->world.fleet.registry();
    view.reserve_prices = shard->market->CurrentReservePrices();
    // What the shard's auction will actually sell, not raw headroom: the
    // market only offers supply_fraction of free capacity each round.
    view.free_capacity = shard->world.fleet.FreeVector();
    for (double& units : view.free_capacity) {
      units *= shard->market->supply_fraction();
    }
    view.fixed_prices = shard->market->fixed_prices();
    // Outcome feedback for the router: the unit-weighted fraction of
    // recently awarded buys this shard failed to place. Only computed
    // when the router actually folds it into heat — the scan over
    // recent awards is wasted work otherwise.
    view.placement_failure_rate =
        config_.router.failure_heat_weight > 0.0
            ? exchange::RecentPlacementFailureRate(
                  shard->market->History(), config_.router.failure_window)
            : 0.0;
    // Failure-domain gating: the router refuses quarantined shards and
    // sheds load off degraded/recovering ones.
    view.health = health_[views.size()].status;
    views.push_back(std::move(view));
  }
  return views;
}

const ShardHealthStatus& FederatedExchange::ShardHealthOf(
    std::size_t shard) const {
  PM_CHECK(shard < health_.size());
  return health_[shard];
}

void FederatedExchange::InjectShardFailure(std::size_t shard) {
  PM_CHECK(shard < shards_.size());
  inject_fail_[shard] = 1;
}

void FederatedExchange::InjectEpochRoundBudget(std::size_t shard,
                                               int max_rounds) {
  PM_CHECK(shard < shards_.size());
  PM_CHECK_MSG(max_rounds >= 0, "round budget must be non-negative");
  inject_round_budget_[shard] = max_rounds;
}

void FederatedExchange::EmergencySweep(int epoch) {
  if (treasury_ == nullptr) return;
  const std::string memo =
      "emergency sweep epoch " + std::to_string(epoch);
  for (const std::string& team : treasury_->Teams()) {
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const Money remaining = shards_[k]->market->WithdrawTeam(team, memo);
      treasury_->Sweep(team, k, remaining, epoch);
    }
  }
}

std::vector<const cluster::Fleet*> FederatedExchange::ShardFleets() const {
  std::vector<const cluster::Fleet*> fleets;
  fleets.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    fleets.push_back(&shard->world.fleet);
  }
  return fleets;
}

void FederatedExchange::EndowFederatedTeam(const std::string& team,
                                           Money per_shard_budget) {
  if (treasury_ != nullptr) {
    // The settlement sweep withdraws this name's entire local balance in
    // every shard each epoch — a collision with a resident team would
    // silently confiscate that team's budget. Fail fast instead.
    for (const std::unique_ptr<Shard>& shard : shards_) {
      for (const agents::TeamAgent& agent : shard->world.agents) {
        PM_CHECK_MSG(agent.profile().name != team,
                     "federated team '"
                         << team << "' collides with a resident team in "
                         << "shard '" << shard->name
                         << "'; the treasury sweep would drain it");
      }
    }
    // One planet-wide mint; shard budgets become per-epoch allowances
    // pushed (and swept back) by RunEpoch.
    treasury_->Mint(team,
                    per_shard_budget *
                        static_cast<std::int64_t>(shards_.size()),
                    "federated endowment: " + team);
    for (FederatedTeam& registered : federated_teams_) {
      if (registered.team == team) {
        registered.per_shard_allowance = per_shard_budget;
        return;
      }
    }
    federated_teams_.push_back(FederatedTeam{team, per_shard_budget});
    return;
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->market->EndowTeam(team, per_shard_budget,
                             "federation endowment");
  }
}

void FederatedExchange::SubmitFederatedBid(FederatedBid bid) {
  // Validate here, not inside RunEpoch: a bad bid discovered mid-epoch
  // would either wedge the queue (router throws before the clear) or
  // leave earlier routed parts half-submitted to shard markets.
  PM_CHECK_MSG(!bid.team.empty(), "federated bid needs a billing team");
  if (!bid.home_shard.empty()) {
    bool known = false;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      known = known || shard->name == bid.home_shard;
    }
    PM_CHECK_MSG(known, "unknown home shard '" << bid.home_shard << "'");
  }
  if (telemetry_ != nullptr && config_.telemetry.trace_bids) {
    // A supervisor re-queue re-enters through pending_ directly and keeps
    // its trace; only a fresh bid opens a lifecycle here.
    if (bid.trace == 0) bid.trace = telemetry_->tracer().NewTrace();
    telemetry::Span& span =
        telemetry_->EmitSpan(bid.trace, "submit", EpochCount(), -1);
    span.attrs.emplace_back("team", bid.team);
    span.attrs.emplace_back("tag", bid.tag);
    span.attrs.emplace_back("limit", FormatF(bid.limit, 2));
  }
  pending_.push_back(std::move(bid));
}

FederationReport FederatedExchange::RunEpoch() {
  const int epoch = EpochCount();
  if (!config_.supervisor.enabled && treasury_ != nullptr) {
    // Unsupervised: a shard throwing mid-epoch propagates to the caller,
    // but never with this epoch's allowances stranded in shard floats —
    // the emergency sweep reconciles every (team, shard) pair first, so
    // the planet ledger's invariants (conservation AND zero floats
    // between epochs) hold in every terminal state.
    try {
      return RunEpochInternal(epoch);
    } catch (...) {
      EmergencySweep(epoch);
      throw;
    }
  }
  return RunEpochInternal(epoch);
}

void FederatedExchange::IngestShardTelemetry(
    const int epoch, const std::vector<ShardEpochSummary>& summaries,
    const RoutingResult& routing,
    const std::vector<std::uint64_t>& epoch_traces) {
  if (telemetry_ == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const ShardEpochSummary& s = summaries[k];
    telemetry::Labels by_shard;
    by_shard.shard = shards_[k]->name;
    if (!s.participated) {
      telemetry_->RecordEvent(k, epoch, "quarantined: sat the epoch out");
      continue;
    }
    if (s.failed) {
      reg.AddCounter("fed_shard_failures", by_shard, 1.0);
      telemetry_->RecordEvent(k, epoch, "auction crashed: " + s.failure);
      continue;
    }
    const exchange::AuctionReport& r = s.report;
    // Hot-path counters surfaced through the report chain (DemandEngine
    // workspace → ClockAuctionResult → AuctionReport) — nothing here
    // ever executed inside the auction loops.
    reg.AddCounter("fed_auction_rounds", by_shard,
                   static_cast<double>(r.rounds));
    reg.AddCounter("fed_demand_evaluations", by_shard,
                   static_cast<double>(r.demand_evaluations));
    reg.AddCounter("fed_proxies_reevaluated", by_shard,
                   static_cast<double>(r.proxies_reevaluated));
    reg.AddCounter("fed_bisection_probes", by_shard,
                   static_cast<double>(r.bisection_probes));
    {
      telemetry::Labels by_phase = by_shard;
      by_phase.phase = "full";
      reg.AddCounter("fed_engine_collections", by_phase,
                     static_cast<double>(r.full_collections));
      by_phase.phase = "incremental";
      reg.AddCounter("fed_engine_collections", by_phase,
                     static_cast<double>(r.incremental_collections));
    }
    reg.AddCounter("fed_bids_seen", by_shard,
                   static_cast<double>(r.num_bids));
    reg.AddCounter("fed_winners", by_shard,
                   static_cast<double>(r.num_winners));
    reg.AddCounter("fed_external_rejections", by_shard,
                   static_cast<double>(r.external_rejected));
    // Revenue is a net flow (sell-side payouts can push it negative in
    // an epoch), so it is a per-epoch gauge, not a monotone counter;
    // the snapshot series carries its history.
    reg.SetGauge("fed_operator_revenue_dollars", by_shard,
                 r.operator_revenue);
    reg.AddCounter("fed_placement_failures", by_shard,
                   static_cast<double>(r.placement_failures));
    reg.AddCounter("fed_partial_placements", by_shard,
                   static_cast<double>(r.partial_placements));
    reg.AddCounter("fed_refund_dollars", by_shard, r.refund_total);
    reg.AddCounter("fed_move_billing_dollars", by_shard,
                   r.move_billing_total);
    reg.AddCounter("fed_jobs_added", by_shard,
                   static_cast<double>(r.jobs_added));
    reg.AddCounter("fed_jobs_removed", by_shard,
                   static_cast<double>(r.jobs_removed));
    reg.AddCounter("fed_transport_messages", by_shard,
                   static_cast<double>(r.transport_messages));
    reg.AddCounter("fed_transport_bytes", by_shard,
                   static_cast<double>(r.transport_bytes));
    reg.SetGauge("fed_utilization_spread", by_shard,
                 exchange::UtilizationSpread(r.post_utilization));
    reg.SetGauge("fed_rounds_last_epoch", by_shard,
                 static_cast<double>(r.rounds));
    const PoolRegistry& pools = shards_[k]->world.fleet.registry();
    for (std::size_t p = 0; p < r.settled_prices.size(); ++p) {
      telemetry::Labels by_kind = by_shard;
      by_kind.kind = std::string(
          ToString(pools.KeyOf(static_cast<PoolId>(p)).kind));
      reg.Observe("fed_clearing_price", by_kind, r.settled_prices[p],
                  /*lo=*/0.0, /*hi=*/50.0, /*bins=*/25);
      if (config_.telemetry.watchdog.recording_rules) {
        // The watchdog's point-in-time price surface: the histogram
        // above keeps the distribution, the rule engine and console
        // need this epoch's exact price per (shard, kind).
        reg.SetGauge("fed_clearing_price_dollars", by_kind,
                     r.settled_prices[p]);
      }
    }
    if (config_.telemetry.watchdog.recording_rules) {
      // Awarded buy-side dollars, the refund-storm denominator.
      // Monotone by construction (payments clamp at zero).
      double awarded = 0.0;
      for (const exchange::AwardRecord& a : r.awards) {
        awarded += std::max(0.0, a.payment);
      }
      reg.AddCounter("fed_awarded_dollars", by_shard, awarded);
    }
    if (config_.telemetry.profiler.work_accounting) {
      // The profiler's deterministic work-accounting channel: logical
      // cost counters for this shard-epoch, plus the per-(epoch, shard)
      // work tree the flight recorder attaches to containment dumps.
      reg.AddCounter("fed_work_dot_blocks", by_shard,
                     static_cast<double>(r.dot_blocks));
      reg.AddCounter("fed_work_dirty_bidders", by_shard,
                     static_cast<double>(r.dirty_bidders));
      reg.AddCounter("fed_work_refund_ops", by_shard,
                     static_cast<double>(r.refund_ops));
      reg.AddCounter("fed_work_wire_retries", by_shard,
                     static_cast<double>(r.wire_frames_retried));
      reg.AddCounter("fed_work_wire_dedups", by_shard,
                     static_cast<double>(r.wire_frames_deduped));
      telemetry::WorkCounters work;
      work.dot_blocks = r.dot_blocks;
      work.dirty_bidders = r.dirty_bidders;
      work.bisection_probes = r.bisection_probes;
      work.full_collections = r.full_collections;
      work.incremental_collections = r.incremental_collections;
      work.wire_retries = r.wire_frames_retried;
      work.wire_dedups = r.wire_frames_deduped;
      work.refund_ops = static_cast<long long>(r.refund_ops);
      telemetry_->profiler()->RecordWork(epoch, k, std::move(work));
    }
    if (config_.telemetry.profiler.wall_clock) {
      // Wall channel: the shard's collect/bisect/settle spans were
      // measured on the worker thread but ride the report; copying them
      // here keeps every profiler mutation at the barrier.
      for (const PhaseSpan& span : r.phases) {
        telemetry_->profiler()->AddSpan(k, epoch, span);
      }
    }
    telemetry_->RecordEvent(
        k, epoch,
        "auction: rounds=" + std::to_string(r.rounds) +
            " bids=" + std::to_string(r.num_bids) + " winners=" +
            std::to_string(r.num_winners) +
            (r.converged ? "" : " (unconverged)"));
  }

  // Bid lifecycles: one shard-auction span per routed part, then its
  // settlement fate — the matching award, an explicit gate rejection,
  // or no award at all.
  if (config_.telemetry.trace_bids) {
    for (const RoutedBid& routed : routing.routed) {
      const std::uint64_t trace = epoch_traces[routed.bid_index];
      if (trace == 0) continue;
      const std::size_t k = routed.shard;
      const ShardEpochSummary& s = summaries[k];
      telemetry::Span& span = telemetry_->EmitSpan(
          trace, "shard-auction", epoch, static_cast<int>(k));
      span.attrs.emplace_back("bid", routed.bid.name);
      if (s.failed) {
        span.attrs.emplace_back("outcome", "crashed");
      } else {
        span.attrs.emplace_back("rounds",
                                std::to_string(s.report.rounds));
        span.attrs.emplace_back("converged",
                                s.report.converged ? "true" : "false");
      }
      telemetry_->MirrorSpan(span);
      if (s.failed) continue;

      const exchange::AwardRecord* award = nullptr;
      for (const exchange::AwardRecord& a : s.report.awards) {
        if (a.team == routed.team && a.bid_name == routed.bid.name) {
          award = &a;
          break;
        }
      }
      if (award != nullptr) {
        telemetry::Span& settle = telemetry_->EmitSpan(
            trace, "settle", epoch, static_cast<int>(k));
        settle.attrs.emplace_back("bid", routed.bid.name);
        settle.attrs.emplace_back("payment", FormatF(award->payment, 2));
        settle.attrs.emplace_back(
            "placement",
            std::string(exchange::ToString(award->outcome.status)));
        if (award->outcome.refund > 0.0) {
          settle.attrs.emplace_back("refund",
                                    FormatF(award->outcome.refund, 2));
        }
        telemetry_->MirrorSpan(settle);
        continue;
      }
      const exchange::ExternalRejection* rejection = nullptr;
      for (const exchange::ExternalRejection& rej :
           s.report.external_rejections) {
        if (rej.team == routed.team && rej.bid_name == routed.bid.name) {
          rejection = &rej;
          break;
        }
      }
      if (rejection != nullptr) {
        telemetry::Span& rejected = telemetry_->EmitSpan(
            trace, "reject", epoch, static_cast<int>(k));
        rejected.attrs.emplace_back("bid", routed.bid.name);
        rejected.attrs.emplace_back(
            "reason",
            std::string(exchange::ToString(rejection->reason)));
        telemetry_->MirrorSpan(rejected);
        continue;
      }
      telemetry::Span& lost = telemetry_->EmitSpan(
          trace, "no-award", epoch, static_cast<int>(k));
      lost.attrs.emplace_back("bid", routed.bid.name);
      telemetry_->MirrorSpan(lost);
    }
  }
}

void FederatedExchange::CloseEpochTelemetry(const int epoch,
                                            FederationReport& report) {
  if (telemetry_ == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  const telemetry::Labels planet;
  reg.SetGauge("fed_clearing_spread", planet, report.clearing_spread);
  if (!report.migrations.empty()) {
    reg.AddCounter("fed_migrations", planet,
                   static_cast<double>(report.migrations.size()));
  }

  // Watchdog pass: recording rules write this epoch's derived gauges,
  // then the alert engine judges them — BEFORE the snapshot below so
  // both ride the epoch's series entry. Still single-threaded.
  const std::vector<telemetry::AlertTransition> transitions =
      telemetry_->EvaluateWatchdog(epoch);
  if (telemetry_->alerts() != nullptr) {
    report.alerts.enabled = true;
    report.alerts.transitions = transitions.size();
    report.alerts.firing = telemetry_->alerts()->FiringNames();
    for (const telemetry::AlertTransition& t : transitions) {
      // Mirror every lifecycle transition into the flight recorder:
      // a per-shard series lands in that shard's ring, a planet-wide
      // one in every ring (a containment dump should always explain
      // which alarms were ringing).
      const std::string line =
          "alert " + t.rule + " [" + t.series + "]: " +
          std::string(telemetry::ToString(t.from)) + " -> " +
          std::string(telemetry::ToString(t.to));
      const std::string shard_name =
          telemetry::KeyLabels(t.series).shard;
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        if (shard_name.empty() || shards_[k]->name == shard_name) {
          telemetry_->RecordEvent(k, epoch, line);
        }
      }
    }
  }
  reg.SnapshotEpoch(epoch);
}

FederationReport FederatedExchange::RunEpochInternal(const int epoch) {
  const bool supervised = config_.supervisor.enabled;

  // Profiler wall channel: federation-track spans (epoch, route, barrier)
  // are recorded here on the single epoch thread. Null when unarmed. The
  // epoch span encloses the whole body, route and barrier included.
  telemetry::PhaseProfiler* prof =
      telemetry_ != nullptr && config_.telemetry.profiler.wall_clock
          ? telemetry_->profiler()
          : nullptr;
  const std::size_t fed_track =
      prof == nullptr ? 0 : prof->federation_track();
  telemetry::ScopedSpan epoch_span(prof, fed_track, epoch, "epoch");

  // S0. Epoch-start health transitions and checkpoints. Quarantined
  // shards drain their backoff and sit the epoch out; one that has
  // drained moves to recovering and rejoins. Active shards are
  // checkpointed *before* any epoch mutation (allowance endowments
  // included), so a contained failure can roll the shard back to the
  // epoch boundary and RefundAllowance squares the planet ledger.
  std::vector<std::vector<std::uint8_t>> checkpoints(shards_.size());
  if (supervised) {
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      ShardHealthStatus& h = health_[k];
      if (h.status == ShardHealth::kQuarantined) {
        if (h.backoff_remaining > 0) {
          --h.backoff_remaining;
          h.active = false;
        } else {
          h.status = ShardHealth::kRecovering;
          ++h.retries;
          h.active = true;
        }
      } else {
        h.active = true;
      }
      if (h.active) checkpoints[k] = shards_[k]->market->Snapshot();
    }
  }
  const auto shard_active = [&](std::size_t k) {
    return !supervised || health_[k].active;
  };

  // 0. Treasury: push this epoch's shard allowances (planet account →
  // shard float → shard-local endowment), teams in registration order,
  // shards by index — deterministic, and clamped to each team's planet
  // balance so no push can create money.
  if (treasury_ != nullptr) {
    const std::string memo = "treasury allowance epoch " +
                             std::to_string(epoch);
    for (const FederatedTeam& team : federated_teams_) {
      // An underfunded team's remaining planet balance is divided
      // evenly (to the micro-dollar) across shards, so shard 0 cannot
      // drain the pot before later shards are funded at all.
      const std::vector<Money> fair_share = exchange::SplitEvenly(
          treasury_->PlanetBalance(team.team), shards_.size());
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        // Quarantined shards run no auction: money pushed there would
        // sit uselessly in the float all epoch.
        if (!shard_active(k)) continue;
        const Money granted = treasury_->PushAllowance(
            team.team, k,
            std::min(team.per_shard_allowance, fair_share[k]), epoch);
        if (!granted.IsZero()) {
          shards_[k]->market->EndowTeam(team.team, granted, memo);
        }
      }
    }
  }

  // One coherent pre-auction snapshot per epoch, built lazily: prices
  // and free capacity only move at auction time, so the arbitrage
  // planner and the router can share it — and an epoch with neither
  // pays nothing (the snapshot costs a full reserve-pricing pass per
  // shard, which RunAuction repeats anyway).
  std::vector<ShardView> views;
  const auto ensure_views = [&] {
    if (views.empty()) views = BuildShardViews();
  };

  // 0b. Arbitrage: plan from the previous epoch's clearing prices, fund
  // each buy from the margin account (clamped to what is left of it),
  // and enter the bids through the shards' external-bid gates. The
  // first epoch has no price signal, so the agent sits it out.
  std::vector<ArbitragePlan> arb_plans;
  std::size_t arb_buys_submitted = 0;
  std::size_t arb_sells_submitted = 0;
  if (arbitrage_ != nullptr && !history_.empty()) {
    ensure_views();
    arb_plans = arbitrage_->PlanEpoch(&history_.back(), views,
                                      ShardFleets(), epoch);
    for (ArbitragePlan& plan : arb_plans) {
      // A bid submitted to a quarantined shard would be stranded in its
      // external queue (no auction runs to consume it) and poison the
      // shard's next checkpoint.
      if (!shard_active(plan.shard)) continue;
      if (plan.is_buy) {
        const Money granted = treasury_->PushAllowance(
            arbitrage_->team(), plan.shard, plan.funding, epoch);
        if (granted.IsZero()) continue;  // Margin exhausted: skip the buy.
        shards_[plan.shard]->market->EndowTeam(
            arbitrage_->team(), granted,
            "arbitrage margin epoch " + std::to_string(epoch));
        // Cap the bid at ITS OWN funding, not the team's shard balance:
        // the market's gate clamps to the total balance, so two partially
        // funded buys in one shard could otherwise win for more than the
        // margin granted and settle as a local overdraft.
        plan.bid.limit = std::min(plan.bid.limit, granted.ToDouble());
        ++arb_buys_submitted;
      } else {
        ++arb_sells_submitted;
      }
      shards_[plan.shard]->market->SubmitExternalBid(
          exchange::Market::ExternalBid{arbitrage_->team(), plan.bid});
    }
  }

  // 1. Route. The queued federated bids become per-shard external bids,
  // placed against the shared snapshot. Under supervision the originals
  // are kept: a bid whose shard fails mid-epoch is re-queued for next
  // epoch's pass over the healthy shards.
  RoutingResult routing;
  std::vector<FederatedBid> epoch_bids;
  // Trace id per routing input (index-aligned with routing.decisions) —
  // captured before pending_ is cleared so the post-auction telemetry
  // passes can join shard outcomes back to bid lifecycles.
  std::vector<std::uint64_t> epoch_traces;
  if (!pending_.empty()) {
    telemetry::ScopedSpan route_span(prof, fed_track, epoch, "route");
    ensure_views();
    if (supervised) epoch_bids = pending_;
    if (telemetry_ != nullptr) {
      epoch_traces.reserve(pending_.size());
      for (const FederatedBid& fed : pending_) {
        epoch_traces.push_back(fed.trace);
      }
    }
    MarketRouter router(config_.router, std::move(views));
    if (treasury_ != nullptr && config_.router.budget_pressure > 0.0) {
      // Treasury-aware routing: a team low on planet money spills to
      // cheaper shards earlier (its effective spill threshold tightens
      // with its remaining balance).
      std::unordered_map<std::string, double> balances;
      for (const std::string& team : treasury_->Teams()) {
        balances.emplace(team,
                         treasury_->PlanetBalance(team).ToDouble());
      }
      routing = router.Route(pending_, balances);
    } else {
      routing = router.Route(pending_);
    }
    pending_.clear();
    // Batched per-shard submission: one gate call per shard instead of
    // one per routed part, keeping each shard's intra-batch order (the
    // routed order) — bid order inside every market is unchanged.
    std::vector<std::vector<exchange::Market::ExternalBid>> batches(
        shards_.size());
    for (const RoutedBid& routed : routing.routed) {
      batches[routed.shard].push_back(
          exchange::Market::ExternalBid{routed.team, routed.bid});
    }
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      if (!batches[k].empty()) {
        shards_[k]->market->SubmitExternalBids(std::move(batches[k]));
      }
    }

    // Telemetry: router decisions and spill reasons (single-threaded —
    // the shard auctions have not started).
    if (telemetry_ != nullptr) {
      telemetry::MetricsRegistry& reg = telemetry_->registry();
      for (const RouteDecision& decision : routing.decisions) {
        telemetry::Labels by_policy;
        by_policy.phase = std::string(ToString(decision.policy));
        if (decision.shards.empty()) {
          reg.AddCounter("fed_router_unroutable", by_policy, 1.0);
        } else {
          reg.AddCounter("fed_router_bids_routed", by_policy, 1.0);
          if (decision.spilled) {
            reg.AddCounter("fed_router_spills", by_policy, 1.0);
          }
        }
      }
      reg.AddCounter("fed_router_parts_placed", telemetry::Labels{},
                     static_cast<double>(routing.routed.size()));
      if (config_.telemetry.trace_bids) {
        for (std::size_t i = 0; i < routing.decisions.size(); ++i) {
          if (epoch_traces[i] == 0) continue;
          const RouteDecision& decision = routing.decisions[i];
          telemetry::Span& span =
              telemetry_->EmitSpan(epoch_traces[i], "route", epoch, -1);
          span.attrs.emplace_back("policy",
                                  std::string(ToString(decision.policy)));
          span.attrs.emplace_back(
              "parts", std::to_string(decision.shards.size()));
          span.attrs.emplace_back("spilled",
                                  decision.spilled ? "true" : "false");
          if (!decision.shards.empty()) {
            span.attrs.emplace_back("heat",
                                    FormatF(decision.preferred_heat, 3));
          }
        }
        for (const RoutedBid& routed : routing.routed) {
          const std::uint64_t trace = epoch_traces[routed.bid_index];
          if (trace == 0) continue;
          telemetry::Span& span = telemetry_->EmitSpan(
              trace, "enqueue", epoch, static_cast<int>(routed.shard));
          span.attrs.emplace_back("bid", routed.bid.name);
          span.attrs.emplace_back("limit", FormatF(routed.bid.limit, 2));
          telemetry_->MirrorSpan(span);
        }
      }
    }
  }

  // 2. Clear every shard. Shards share no mutable state, so the rounds
  // run concurrently; each shard's work is sequential within the shard,
  // which keeps results bit-identical across thread counts. Under
  // supervision each shard epoch runs inside a containment boundary:
  // the catch is INSIDE the per-shard lambda (ParallelFor only rethrows
  // the first exception after every chunk finishes, which would lose all
  // but one failure and kill the whole epoch), so a failed shard records
  // its fault and the planet epoch completes without it.
  std::vector<ShardEpochSummary> summaries(shards_.size());
  const auto run_shard = [&](std::size_t k) {
    summaries[k].shard = k;
    summaries[k].name = shards_[k]->name;
    if (!shard_active(k)) {
      summaries[k].participated = false;
      return;
    }
    const auto run_one = [&] {
      exchange::AuctionReport r = shards_[k]->market->RunAuction();
      // Injected crash: the auction ran to completion and mutated the
      // shard before the fault lands — the worst case for containment.
      PM_CHECK_MSG(inject_fail_[k] == 0,
                   "injected failure: shard " << k << " ('"
                       << shards_[k]->name << "') crashed mid-epoch");
      const int budget = inject_round_budget_[k];
      PM_CHECK_MSG(budget < 0 || r.rounds <= budget,
                   "epoch budget exceeded: shard "
                       << k << " ('" << shards_[k]->name << "') took "
                       << r.rounds << " rounds (budget " << budget
                       << ")");
      summaries[k].report = std::move(r);
    };
    if (!supervised) {
      run_one();  // Failures propagate (first rethrown by ParallelFor).
      return;
    }
    try {
      run_one();
    } catch (const std::exception& e) {
      summaries[k].failed = true;
      summaries[k].failure = e.what();
    }
  };
  if (pool_ != nullptr) {
    ParallelFor(pool_.get(), 0, shards_.size(), run_shard);
  } else {
    for (std::size_t k = 0; k < shards_.size(); ++k) run_shard(k);
  }
  // One-shot injections are consumed by the epoch that ran them.
  std::fill(inject_fail_.begin(), inject_fail_.end(), 0);
  std::fill(inject_round_budget_.begin(), inject_round_budget_.end(), -1);

  // T1. Telemetry ingest at the epoch barrier: the shard auctions are
  // done and the epoch is single-threaded again, so every write in
  // IngestShardTelemetry is deterministic and ordered by shard index /
  // routed-part order, independent of how the shards were scheduled
  // above. It must run BEFORE the S1 containment pass so a failed
  // shard's flight dump can include its auction-phase spans and events.
  // The barrier span covers everything from here through T2 — the
  // single-threaded tail of the epoch.
  telemetry::ScopedSpan barrier_span(prof, fed_track, epoch, "barrier");
  IngestShardTelemetry(epoch, summaries, routing, epoch_traces);

  // S1. Containment aftermath: roll failed shards back to their epoch
  // checkpoints, advance every shard's health machine, square the planet
  // ledger, and recover the failed shards' federated bids.
  HealthBlock health_block;
  if (supervised) {
    health_block.supervised = true;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      ShardHealthStatus& h = health_[k];
      const ShardHealth before = h.status;
      if (!h.active) {
        ++health_block.quarantined_shards;
      } else if (summaries[k].failed) {
        // Bit-identical rejoin: the shard resumes from the exact state
        // the epoch started from, whatever the failure corrupted.
        shards_[k]->market->Restore(checkpoints[k]);
        ++h.restored_checkpoints;
        ++health_block.restored_checkpoints;
        ++health_block.failed_shards;
        ++h.failure_streak;
        if (h.failure_streak >= config_.supervisor.quarantine_streak) {
          // The streak is NOT reset: a recovering shard that fails its
          // probation epoch re-quarantines immediately, with backoff
          // doubled per quarantine up to the cap.
          h.status = ShardHealth::kQuarantined;
          int backoff = config_.supervisor.backoff_base;
          for (int i = 0; i < h.quarantine_count &&
                          backoff < config_.supervisor.backoff_cap;
               ++i) {
            backoff <<= 1;
          }
          h.backoff_remaining =
              std::min(backoff, config_.supervisor.backoff_cap);
          ++h.quarantine_count;
        } else {
          h.status = ShardHealth::kDegraded;
        }
      } else {
        h.failure_streak = 0;
        h.status = ShardHealth::kHealthy;
      }
      summaries[k].health = h.status;

      if (telemetry_ != nullptr) {
        const std::string transition = std::string(ToString(before)) +
                                       " -> " +
                                       std::string(ToString(h.status));
        if (h.active && before != h.status) {
          telemetry_->RecordEvent(k, epoch, "health: " + transition);
        }
        if (config_.telemetry.watchdog.recording_rules) {
          telemetry::MetricsRegistry& reg = telemetry_->registry();
          telemetry::Labels by_shard;
          by_shard.shard = shards_[k]->name;
          if (h.active && before != h.status) {
            // The health-flap counter the derived flap-rate rule reads.
            reg.AddCounter("fed_health_transitions", by_shard, 1.0);
          }
          // Post-transition health for the console (encodes the
          // ShardHealth enum value; telemetry/console.cpp decodes it).
          reg.SetGauge("fed_shard_health", by_shard,
                       static_cast<double>(h.status));
        }
        // Containment flight dump: the failed shard's recent ring (the
        // health event above included) plus the full span chain of every
        // traced bid that touched it this epoch.
        if (summaries[k].failed && config_.telemetry.flight_recorder) {
          std::vector<std::pair<std::uint64_t, std::vector<std::string>>>
              chains;
          for (const RoutedBid& routed : routing.routed) {
            if (routed.shard != k) continue;
            const std::uint64_t trace = epoch_traces[routed.bid_index];
            if (trace == 0) continue;
            bool seen = false;
            for (const auto& chain : chains) {
              seen = seen || chain.first == trace;
            }
            if (seen) continue;
            std::vector<std::string> lines;
            for (const telemetry::Span* span :
                 telemetry_->tracer().SpansOf(trace)) {
              lines.push_back(span->Render());
            }
            chains.emplace_back(trace, std::move(lines));
          }
          // The failing epoch's own report rolled back with the shard,
          // so the work tree shows the run-up — the recent epochs where
          // the shard was burning its round budget — plus an explicit
          // note for the unrecorded failure epoch.
          std::string work_tree;
          if (config_.telemetry.profiler.work_accounting) {
            work_tree =
                telemetry_->profiler()->RenderWorkTree(k, epoch);
          }
          telemetry_->recorder().DumpShard(k, shards_[k]->name, epoch,
                                           summaries[k].failure,
                                           transition, chains, work_tree);
        }
      }
    }

    // Failed shards' treasury floats: the restore reverted their
    // shard-local endowments, so nothing was spent and each team's full
    // outstanding allowance returns to its planet account.
    if (treasury_ != nullptr) {
      Money refunded;
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        if (!summaries[k].failed) continue;
        for (const std::string& team : treasury_->Teams()) {
          refunded += treasury_->RefundAllowance(team, k, epoch);
        }
      }
      health_block.refunded_allowance = refunded.ToDouble();
    }

    // Failed shards' routed federated bids. A bid all of whose parts
    // landed on failed shards is re-queued whole for next epoch's router
    // pass (reroute_failed_bids); parts whose sibling parts settled on
    // healthy shards — splits and mirrors — are counted refunded instead
    // (their money never left the planet ledger, and re-buying them
    // would double the quantities the healthy parts already won).
    for (std::size_t i = 0; i < routing.decisions.size(); ++i) {
      const RouteDecision& decision = routing.decisions[i];
      if (decision.shards.empty()) continue;
      std::size_t failed_parts = 0;
      for (std::size_t s : decision.shards) {
        if (summaries[s].failed) ++failed_parts;
      }
      if (failed_parts == 0) continue;
      const std::uint64_t trace =
          telemetry_ != nullptr ? epoch_traces[i] : 0;
      if (config_.supervisor.reroute_failed_bids &&
          failed_parts == decision.shards.size()) {
        pending_.push_back(epoch_bids[i]);
        ++health_block.rerouted_bids;
        if (trace != 0 && config_.telemetry.trace_bids) {
          telemetry::Span& span =
              telemetry_->EmitSpan(trace, "reroute", epoch, -1);
          span.attrs.emplace_back("reason", "every part on a failed shard");
        }
      } else {
        health_block.refunded_bids += failed_parts;
        if (trace != 0 && config_.telemetry.trace_bids) {
          telemetry::Span& span =
              telemetry_->EmitSpan(trace, "refund-part", epoch, -1);
          span.attrs.emplace_back("failed_parts",
                                  std::to_string(failed_parts));
          span.attrs.emplace_back(
              "parts", std::to_string(decision.shards.size()));
        }
      }
    }
    health_block.statuses = health_;

    // Supervisor counters for the registry (still single-threaded).
    if (telemetry_ != nullptr) {
      telemetry::MetricsRegistry& reg = telemetry_->registry();
      const telemetry::Labels planet;
      reg.AddCounter("fed_supervisor_failed_shards", planet,
                     static_cast<double>(health_block.failed_shards));
      reg.AddCounter("fed_supervisor_quarantined_epochs", planet,
                     static_cast<double>(health_block.quarantined_shards));
      reg.AddCounter(
          "fed_supervisor_restored_checkpoints", planet,
          static_cast<double>(health_block.restored_checkpoints));
      reg.AddCounter("fed_supervisor_rerouted_bids", planet,
                     static_cast<double>(health_block.rerouted_bids));
      reg.AddCounter("fed_supervisor_refunded_bids", planet,
                     static_cast<double>(health_block.refunded_bids));
      reg.AddCounter("fed_supervisor_refunded_allowance_dollars", planet,
                     health_block.refunded_allowance);
    }
  }

  // 3. Merge into the planet-wide report. The clearing-price spread is
  // measured before any rebalancing so it reflects the fleets the prices
  // were discovered on.
  FederationReport report = BuildFederationReport(epoch,
                                                  std::move(summaries),
                                                  std::move(routing));
  report.health = std::move(health_block);
  report.clearing_spread =
      ComputeClearingSpread(report, ShardFleets());

  // 4. Arbitrage digest: map this epoch's awards into the warehouse
  // before the money is swept.
  if (arbitrage_ != nullptr) {
    arbitrage_->ObserveEpoch(report);
    report.arbitrage.enabled = true;
    // Only bids that actually reached a shard's auction count — a buy
    // whose funding push came back empty was never submitted.
    report.arbitrage.buys_planned = arb_buys_submitted;
    report.arbitrage.sells_planned = arb_sells_submitted;
    report.arbitrage.holdings_units = arbitrage_->TotalHoldingsUnits();
    report.arbitrage.realized_pnl = arbitrage_->RealizedPnl();
    report.arbitrage.mark_to_market = arbitrage_->MarkToMarket();
    report.arbitrage.halted = arbitrage_->Halted();
  }

  // 5. Settlement sweep: every federated team's shard-local balance is
  // withdrawn to the shard operator and reconciled on the planet ledger.
  // Between epochs the shard floats are therefore exactly zero and the
  // treasury holds every federated dollar.
  if (treasury_ != nullptr) {
    const std::string memo = "treasury sweep epoch " +
                             std::to_string(epoch);
    for (const std::string& team : treasury_->Teams()) {
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        // Failed shards were restored to the epoch boundary (their
        // floats already refunded) and quarantined shards were never
        // funded: sweeping either would touch a ledger this epoch never
        // legitimately reached.
        if (supervised && (!report.shards[k].participated ||
                           report.shards[k].failed)) {
          continue;
        }
        const Money remaining =
            shards_[k]->market->WithdrawTeam(team, memo);
        treasury_->Sweep(team, k, remaining, epoch);
      }
    }
    report.treasury.enabled = true;
    report.treasury.minted = treasury_->TotalMinted().ToDouble();
    report.treasury.burned = treasury_->TotalBurned().ToDouble();
    report.treasury.team_total = treasury_->TeamTotal().ToDouble();
    report.treasury.float_total = treasury_->FloatTotal().ToDouble();
    report.treasury.shard_net_total =
        treasury_->ShardNetTotal().ToDouble();
    report.treasury.transfers = treasury_->Transfers().size();

    // Treasury flow gauges, read after the sweep so the float total is
    // the between-epochs invariant (zero) unless something leaked.
    if (telemetry_ != nullptr) {
      telemetry::MetricsRegistry& reg = telemetry_->registry();
      const telemetry::Labels planet;
      reg.SetGauge("fed_treasury_minted_dollars", planet,
                   report.treasury.minted);
      reg.SetGauge("fed_treasury_burned_dollars", planet,
                   report.treasury.burned);
      reg.SetGauge("fed_treasury_team_dollars", planet,
                   report.treasury.team_total);
      reg.SetGauge("fed_treasury_float_dollars", planet,
                   report.treasury.float_total);
      reg.SetGauge("fed_treasury_transfers", planet,
                   static_cast<double>(report.treasury.transfers));
      if (config_.telemetry.watchdog.recording_rules) {
        // |Σ accounts − (minted − burned)|: zero whenever the treasury's
        // conservation contract holds. The watchdog's drift alert
        // watches this; scenarios forbid it from ever firing.
        reg.SetGauge(
            "fed_treasury_conservation_residual_dollars", planet,
            std::abs(treasury_->CirculatingSupply().ToDouble() -
                     (report.treasury.minted - report.treasury.burned)));
      }
    }
  }

  // 6. Rebalance: whole-cluster migrations planned off the merged report
  // and applied serially — both shards' capacities change before the
  // next epoch.
  if (rebalancer_ != nullptr) {
    for (const MigrationPlan& plan :
         rebalancer_->Observe(report, ShardFleets())) {
      // Capacity never migrates into or out of a shard still proving
      // itself: a failed/quarantined shard's empty report reads as 0%
      // utilization, which would otherwise make it the planet's
      // favourite donor.
      if (supervised &&
          (health_[plan.from_shard].status != ShardHealth::kHealthy ||
           health_[plan.to_shard].status != ShardHealth::kHealthy)) {
        continue;
      }
      report.migrations.push_back(ApplyMigration(plan, epoch));
    }
  }

  // T2. Close the epoch's telemetry: planet-wide gauges, the watchdog
  // pass, and the logical epoch snapshot (see CloseEpochTelemetry).
  CloseEpochTelemetry(epoch, report);
  barrier_span.Stop();

  history_.push_back(std::move(report));
  return history_.back();
}

ClusterMigration FederatedExchange::ApplyMigration(
    const MigrationPlan& plan, int epoch) {
  PM_CHECK(plan.from_shard < shards_.size() &&
           plan.to_shard < shards_.size() &&
           plan.from_shard != plan.to_shard);
  Shard& from = *shards_[plan.from_shard];
  Shard& to = *shards_[plan.to_shard];
  cluster::Cluster moved = from.market->ExtractCluster(plan.cluster);
  // Qualify the name by origin: shard worlds reuse the generator's
  // cluster names ("r03"), so a bare adoption would collide. Repeat
  // migrations of the same base name into the same destination get a
  // deterministic "#<epoch>-<n>" suffix (n covers several same-base
  // clusters arriving in one epoch).
  const std::string base = plan.cluster.substr(0, plan.cluster.find('@'));
  std::string adopted = base + "@" + from.name;
  for (int n = 0; to.world.fleet.HasCluster(adopted); ++n) {
    adopted = base + "@" + from.name + "#" + std::to_string(epoch) + "-" +
              std::to_string(n);
  }
  moved.SetName(adopted);
  to.market->AdoptCluster(std::move(moved));

  // The arbitrage warehouse is keyed by (shard, pool): entries backed by
  // jobs that just travelled with the cluster must travel too.
  if (arbitrage_ != nullptr) {
    std::vector<std::pair<PoolId, PoolId>> pool_map;
    for (ResourceKind kind : kAllResourceKinds) {
      const auto from_pool =
          from.world.fleet.registry().Find(PoolKey{plan.cluster, kind});
      const auto to_pool =
          to.world.fleet.registry().Find(PoolKey{adopted, kind});
      if (from_pool.has_value() && to_pool.has_value()) {
        pool_map.emplace_back(*from_pool, *to_pool);
      }
    }
    arbitrage_->OnClusterMigrated(plan.from_shard, plan.to_shard,
                                  pool_map);
  }

  ClusterMigration record;
  record.cluster = plan.cluster;
  record.adopted_name = std::move(adopted);
  record.from_shard = plan.from_shard;
  record.to_shard = plan.to_shard;
  record.from_util = plan.from_util;
  record.to_util = plan.to_util;
  record.move_cost = plan.move_cost;
  record.expected_benefit = plan.expected_benefit;
  return record;
}

}  // namespace pm::federation
