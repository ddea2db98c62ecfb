#include "federation/federated_exchange.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "exchange/endowment.h"

namespace pm::federation {
namespace {

/// Epochs of backoff on a shard's first quarantine; doubles per
/// subsequent quarantine (1, 2, 4, ...) up to kBackoffCap.
constexpr int kBackoffBase = 1;
constexpr int kBackoffCap = 8;

/// Shard `shard`'s seed stream under `salt`: one SplitMix64 per shard,
/// decorrelated by multiplying the salt by shard + 1 — the same expansion
/// the RNG layer uses for seeding.
SplitMix64 ShardStream(std::uint64_t seed, std::uint64_t salt,
                       std::size_t shard) {
  return SplitMix64(seed ^ (salt * (static_cast<std::uint64_t>(shard) + 1)));
}

/// The golden-ratio salt of the workload and market seed streams.
constexpr std::uint64_t kShardSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Rethrows the lowest-index recorded failure, if any: per-shard work
/// that ran across the pool fails the same way at every thread count.
void RethrowLowestIndex(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

}  // namespace

std::uint64_t FederatedExchange::ShardWorkloadSeed(
    std::uint64_t federation_seed, std::size_t shard) {
  return ShardStream(federation_seed, kShardSeedSalt, shard).Next();
}

std::uint64_t FederatedExchange::ShardMarketSeed(
    std::uint64_t federation_seed, std::size_t shard) {
  SplitMix64 mix = ShardStream(federation_seed, kShardSeedSalt, shard);
  mix.Next();  // Skip the workload seed.
  return mix.Next();
}

FederatedExchange::FederatedExchange(std::vector<ShardSpec> specs,
                                     FederationConfig config)
    : config_(std::move(config)) {
  PM_CHECK_MSG(!specs.empty(), "federation needs at least one shard");
  shards_.reserve(specs.size());
  std::vector<std::string> names;  // For the treasury and the telemetry.
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ShardSpec& spec = specs[k];
    PM_CHECK_MSG(!spec.name.empty(), "shard " << k << " needs a name");
    PM_CHECK_MSG(std::find(names.begin(), names.end(), spec.name) ==
                     names.end(),
                 "duplicate shard name '" << spec.name << "'");
    names.push_back(spec.name);
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
    spec.market.auction.collect_phase_timings =
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
      spec.market.wire_faults.seed =
          ShardStream(config_.wire_faults.seed, 0xbf58476d1ce4e5b9ULL, k)
              .Next();
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
  PM_CHECK_MSG(config_.supervisor.quarantine_streak >= 1,
               "supervisor: need quarantine_streak >= 1");
  health_.resize(shards_.size());
  checkpoints_.resize(shards_.size());
  inject_fail_.assign(shards_.size(), 0);
  inject_round_budget_.assign(shards_.size(), -1);

  // Telemetry plane. Null when the gate is off, so every instrumentation
  // site in the epoch loop costs one pointer test and nothing else.
  if (config_.telemetry.enabled) {
    telemetry_ =
        std::make_unique<telemetry::Telemetry>(config_.telemetry, names);
  }

  // Economy layer. Everything stays null when disabled, so the epoch loop
  // below runs shard-local minting with no cross-shard agents.
  if (config_.economy.arbitrage.enabled) {
    PM_CHECK_MSG(config_.economy.treasury,
                 "arbitrage needs the treasury: its margin account is "
                 "planet currency (set EconomyConfig::treasury)");
  }
  if (config_.economy.treasury) {
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
    std::erase_if(federated_teams_, [&](const FederatedTeam& registered) {
      return registered.team == team;
    });
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
    // What the shard's auction will actually sell, not raw headroom.
    view.free_capacity = shard->market->OfferedSupply();
    view.fixed_prices = shard->market->fixed_prices();
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
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = bid.quantity.Of(kind);
    PM_CHECK_MSG(std::isfinite(qty) && qty >= 0.0,
                 "federated bid " << ToString(kind) << " quantity " << qty
                                  << " must be finite and >= 0");
  }
  if (!bid.home_shard.empty()) {
    bool known = false;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      known = known || shard->name == bid.home_shard;
    }
    PM_CHECK_MSG(known, "unknown home shard '" << bid.home_shard << "'");
  }
  if (telemetry_ != nullptr) {
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
  try {
    return RunEpochInternal(epoch);
  } catch (...) {
    // A propagating failure (a shard crash with no supervisor, or any
    // other throw) first runs the barrier's own sweep, so the planet
    // ledger's invariants (conservation AND zero floats between epochs)
    // hold in every terminal state.
    SweepTreasury(epoch, nullptr);
    throw;
  }
}

FederationReport FederatedExchange::RunEpochInternal(const int epoch) {
  EpochState st;
  st.epoch = epoch;
  // Profiler wall channel: the federation-track spans (epoch, route,
  // barrier) are recorded on the single epoch thread. Null when unarmed.
  st.prof = telemetry_ != nullptr && config_.telemetry.profiler.wall_clock
                ? telemetry_->profiler()
                : nullptr;
  st.fed_track = st.prof == nullptr ? 0 : st.prof->federation_track();
  telemetry::ScopedSpan epoch_span(st.prof, st.fed_track, epoch, "epoch");

  StartEpoch(st);
  PushAllowances(st);
  SubmitArbitrage(st);
  RouteBids(st);
  ClearShards(st);

  // The barrier span covers the single-threaded tail of the epoch.
  telemetry::ScopedSpan barrier(st.prof, st.fed_track, epoch, "barrier");
  IngestShardTelemetry(st);
  ContainFailures(st);
  // Merge into the planet-wide report. The clearing-price spread is
  // measured before any rebalancing so it reflects the fleets the prices
  // were discovered on.
  FederationReport report = BuildFederationReport(
      epoch, std::move(st.summaries), std::move(st.routing));
  report.health = std::move(st.health_block);
  report.clearing_spread = ComputeClearingSpread(report, ShardFleets());
  ObserveArbitrage(st, report);
  SweepTreasury(epoch, &report);
  Rebalance(report);
  CloseEpochTelemetry(epoch, report);
  barrier.Stop();

  history_.push_back(std::move(report));
  return history_.back();
}

// Start of epoch: consume the one-shot fault injections (so a failure
// that propagates out of this epoch cannot leave them armed for the next
// one), then, under supervision, the health transitions and checkpoints.
// Quarantined shards drain their backoff and sit the epoch out; one that
// has drained moves to recovering and rejoins. Active shards are
// checkpointed *before* any epoch mutation (allowance endowments
// included), so a contained failure can roll the shard back to the epoch
// boundary and RefundAllowance squares the planet ledger. Without a
// supervisor health_ is never written: every shard stays active and
// healthy.
//
// The transitions are serial; the checkpoints run across the pool, since
// each Snapshot() reads only its own shard, and each is written into
// that shard's previous frame so its capacity is reused. A failed
// snapshot fails the epoch with the lowest-index failure, whatever the
// thread count.
void FederatedExchange::StartEpoch(EpochState& st) {
  st.inject_fail =
      std::exchange(inject_fail_, std::vector<char>(shards_.size(), 0));
  st.inject_round_budget = std::exchange(
      inject_round_budget_, std::vector<int>(shards_.size(), -1));
  if (!config_.supervisor.enabled) return;
  for (ShardHealthStatus& h : health_) {
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
  }
  std::vector<std::exception_ptr> errors(shards_.size());
  ParallelFor(pool_.get(), 0, shards_.size(), [&](std::size_t k) {
    if (!health_[k].active) return;
    try {
      checkpoints_[k] =
          shards_[k]->market->Snapshot(std::move(checkpoints_[k]));
    } catch (...) {
      errors[k] = std::current_exception();
    }
  });
  RethrowLowestIndex(errors);
}

// Treasury: push this epoch's shard allowances (planet account → shard
// float → shard-local endowment), teams in registration order, shards by
// index — deterministic, and clamped to each team's planet balance so no
// push can create money.
void FederatedExchange::PushAllowances(const EpochState& st) {
  if (treasury_ == nullptr) return;
  const std::string memo =
      "treasury allowance epoch " + std::to_string(st.epoch);
  for (const FederatedTeam& team : federated_teams_) {
    // An underfunded team's remaining planet balance is divided evenly
    // (to the micro-dollar) across shards, so shard 0 cannot drain the
    // pot before later shards are funded at all.
    const std::vector<Money> fair_share = exchange::SplitEvenly(
        treasury_->PlanetBalance(team.team), shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      // Quarantined shards run no auction: money pushed there would sit
      // uselessly in the float all epoch.
      if (!health_[k].active) continue;
      const Money granted = treasury_->PushAllowance(
          team.team, k, std::min(team.per_shard_allowance, fair_share[k]),
          st.epoch);
      if (!granted.IsZero()) {
        shards_[k]->market->EndowTeam(team.team, granted, memo);
      }
    }
  }
}

// Arbitrage: plan from the previous epoch's clearing prices, fund each
// buy from the margin account (clamped to what is left of it), and enter
// the bids through the shards' external-bid gates. The first epoch has
// no price signal, so the agent sits it out. The shard views are one
// coherent pre-auction snapshot, built lazily and shared with the router:
// prices and free capacity only move at auction time, and an epoch with
// neither pays nothing (the snapshot costs a full reserve-pricing pass
// per shard).
void FederatedExchange::SubmitArbitrage(EpochState& st) {
  if (arbitrage_ == nullptr || history_.empty()) return;
  if (st.views.empty()) st.views = BuildShardViews();
  std::vector<ArbitragePlan> plans = arbitrage_->PlanEpoch(
      &history_.back(), st.views, ShardFleets(), st.epoch);
  for (ArbitragePlan& plan : plans) {
    // A bid submitted to a quarantined shard would be stranded in its
    // external queue (no auction runs to consume it) and poison the
    // shard's next checkpoint.
    if (!health_[plan.shard].active) continue;
    if (plan.is_buy) {
      const Money granted = treasury_->PushAllowance(
          arbitrage_->team(), plan.shard, plan.funding, st.epoch);
      if (granted.IsZero()) continue;  // Margin exhausted: skip the buy.
      shards_[plan.shard]->market->EndowTeam(
          arbitrage_->team(), granted,
          "arbitrage margin epoch " + std::to_string(st.epoch));
      // Cap the bid at ITS OWN funding, not the team's shard balance:
      // the market's gate clamps to the total balance, so two partially
      // funded buys in one shard could otherwise win for more than the
      // margin granted and settle as a local overdraft.
      plan.bid.limit = std::min(plan.bid.limit, granted.ToDouble());
      ++st.arb_buys;
    } else {
      ++st.arb_sells;
    }
    shards_[plan.shard]->market->SubmitExternalBid(
        exchange::Market::ExternalBid{arbitrage_->team(), plan.bid});
  }
}

// Route: the queued federated bids become per-shard external bids,
// placed against the shared snapshot. The originals move into
// st.epoch_bids: containment re-queues a bid whose shard fails mid-epoch
// for next epoch's pass over the healthy shards, and their trace ids
// join shard outcomes back to bid lifecycles.
void FederatedExchange::RouteBids(EpochState& st) {
  if (pending_.empty()) return;
  telemetry::ScopedSpan route_span(st.prof, st.fed_track, st.epoch,
                                   "route");
  if (st.views.empty()) st.views = BuildShardViews();
  st.epoch_bids = std::exchange(pending_, {});
  st.routing = MarketRouter(config_.router, std::move(st.views))
                   .Route(st.epoch_bids);
  // Batched per-shard submission: one gate call per shard instead of one
  // per routed part, keeping each shard's intra-batch order (the routed
  // order) — bid order inside every market is unchanged.
  std::vector<std::vector<exchange::Market::ExternalBid>> batches(
      shards_.size());
  for (const RoutedBid& routed : st.routing.routed) {
    batches[routed.shard].push_back(
        exchange::Market::ExternalBid{routed.team, routed.bid});
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (!batches[k].empty()) {
      shards_[k]->market->SubmitExternalBids(std::move(batches[k]));
    }
  }

  // Telemetry: router decisions and spill reasons (single-threaded — the
  // shard auctions have not started).
  if (telemetry_ == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  for (const RouteDecision& decision : st.routing.decisions) {
    telemetry::Labels by_policy;
    by_policy.phase = std::string(ToString(decision.policy));
    if (!decision.shard.has_value()) {
      reg.AddCounter("fed_router_unroutable", by_policy, 1.0);
    } else {
      reg.AddCounter("fed_router_bids_routed", by_policy, 1.0);
      if (decision.spilled) {
        reg.AddCounter("fed_router_spills", by_policy, 1.0);
      }
    }
  }
  for (std::size_t i = 0; i < st.routing.decisions.size(); ++i) {
    const std::uint64_t trace = st.epoch_bids[i].trace;
    if (trace == 0) continue;
    const RouteDecision& decision = st.routing.decisions[i];
    telemetry::Span& span = telemetry_->EmitSpan(trace, "route", st.epoch, -1);
    span.attrs.emplace_back("policy", std::string(ToString(decision.policy)));
    span.attrs.emplace_back("spilled", decision.spilled ? "true" : "false");
    if (decision.shard.has_value()) {
      span.attrs.emplace_back("heat", FormatF(decision.preferred_heat, 3));
    }
  }
  for (const RoutedBid& routed : st.routing.routed) {
    const std::uint64_t trace = st.epoch_bids[routed.bid_index].trace;
    if (trace == 0) continue;
    telemetry::Span& span = telemetry_->EmitSpan(
        trace, "enqueue", st.epoch, static_cast<int>(routed.shard));
    span.attrs.emplace_back("bid", routed.bid.name);
    span.attrs.emplace_back("limit", FormatF(routed.bid.limit, 2));
    telemetry_->MirrorSpan(span);
  }
}

// Clear every shard. Shards share no mutable state, so the rounds run
// concurrently; each shard's work is sequential within the shard, which
// keeps results bit-identical across thread counts. Every shard epoch
// runs inside its own catch, so every active shard clears whatever the
// others do and ParallelFor never sees a failure: each is recorded in
// the shard's summary and its exception kept for ContainFailures.
void FederatedExchange::ClearShards(EpochState& st) {
  st.summaries.resize(shards_.size());
  st.errors.resize(shards_.size());
  ParallelFor(pool_.get(), 0, shards_.size(), [&](std::size_t k) {
    ShardEpochSummary& summary = st.summaries[k];
    summary.shard = k;
    summary.name = shards_[k]->name;
    if (!health_[k].active) {
      summary.participated = false;
      return;
    }
    try {
      exchange::AuctionReport r = shards_[k]->market->RunAuction();
      // Injected crash: the auction ran to completion and mutated the
      // shard before the fault lands — the worst case for containment.
      PM_CHECK_MSG(st.inject_fail[k] == 0,
                   "injected failure: shard " << k << " ('"
                       << shards_[k]->name << "') crashed mid-epoch");
      const int budget = st.inject_round_budget[k];
      PM_CHECK_MSG(budget < 0 || r.rounds <= budget,
                   "epoch budget exceeded: shard "
                       << k << " ('" << shards_[k]->name << "') took "
                       << r.rounds << " rounds (budget " << budget
                       << ")");
      summary.report = std::move(r);
    } catch (const std::exception& e) {
      summary.failed = true;
      summary.failure = e.what();
      st.errors[k] = std::current_exception();
    }
  });
}

// Telemetry ingest at the epoch barrier: the shard auctions are done and
// the epoch is single-threaded again, so every write here is
// deterministic and ordered by shard index / routed-part order,
// independent of how the shards were scheduled. It runs BEFORE
// containment so a failed shard's flight dump can include its
// auction-phase spans and events.
void FederatedExchange::IngestShardTelemetry(const EpochState& st) {
  if (telemetry_ == nullptr) return;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const ShardEpochSummary& s = st.summaries[k];
    if (!s.participated) {
      telemetry_->RecordEvent(k, st.epoch, "quarantined: sat the epoch out");
    } else if (s.failed) {
      telemetry::Labels by_shard;
      by_shard.shard = shards_[k]->name;
      telemetry_->registry().AddCounter("fed_shard_failures", by_shard, 1.0);
      telemetry_->RecordEvent(k, st.epoch, "auction crashed: " + s.failure);
    } else {
      IngestAuctionReport(k, st.epoch, s.report);
    }
  }

  // Bid lifecycles: one shard-auction span per routed part, then its
  // settlement fate — the matching award, an explicit gate rejection,
  // or no award at all.
  for (const RoutedBid& routed : st.routing.routed) {
    const std::uint64_t trace = st.epoch_bids[routed.bid_index].trace;
    if (trace == 0) continue;
    const std::size_t k = routed.shard;
    const ShardEpochSummary& s = st.summaries[k];
    telemetry::Span& span = telemetry_->EmitSpan(
        trace, "shard-auction", st.epoch, static_cast<int>(k));
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
          trace, "settle", st.epoch, static_cast<int>(k));
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
          trace, "reject", st.epoch, static_cast<int>(k));
      rejected.attrs.emplace_back("bid", routed.bid.name);
      rejected.attrs.emplace_back(
          "reason",
          std::string(exchange::ToString(rejection->reason)));
      telemetry_->MirrorSpan(rejected);
      continue;
    }
    telemetry::Span& lost = telemetry_->EmitSpan(
        trace, "no-award", st.epoch, static_cast<int>(k));
    lost.attrs.emplace_back("bid", routed.bid.name);
    telemetry_->MirrorSpan(lost);
  }
}

// One shard's clean auction into the registry, the profiler and its
// flight-recorder ring.
void FederatedExchange::IngestAuctionReport(
    const std::size_t k, const int epoch, const exchange::AuctionReport& r) {
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  telemetry::Labels by_shard;
  by_shard.shard = shards_[k]->name;
  // Hot-path counters surfaced through the report chain (DemandEngine
  // workspace → ClockAuctionResult → AuctionReport) — nothing here
  // ever executed inside the auction loops.
  reg.AddCounter("fed_auction_rounds", by_shard, static_cast<double>(r.rounds));
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
  reg.AddCounter("fed_bids_seen", by_shard, static_cast<double>(r.num_bids));
  reg.AddCounter("fed_winners", by_shard, static_cast<double>(r.num_winners));
  reg.AddCounter("fed_external_rejections", by_shard,
                 static_cast<double>(r.external_rejected));
  // Revenue is a net flow (sell-side payouts can push it negative in
  // an epoch), so it is a per-epoch gauge, not a monotone counter;
  // the snapshot series carries its history.
  reg.SetGauge("fed_operator_revenue_dollars", by_shard, r.operator_revenue);
  reg.AddCounter("fed_placement_failures", by_shard,
                 static_cast<double>(r.placement_failures));
  reg.AddCounter("fed_partial_placements", by_shard,
                 static_cast<double>(r.partial_placements));
  reg.AddCounter("fed_refund_dollars", by_shard, r.refund_total);
  reg.AddCounter("fed_move_billing_dollars", by_shard, r.move_billing_total);
  reg.AddCounter("fed_jobs_added", by_shard, static_cast<double>(r.jobs_added));
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
      reg.SetGauge("fed_clearing_price_dollars", by_kind, r.settled_prices[p]);
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

// Containment. Without a supervisor there is no checkpoint to roll back
// to, so a failure propagates: always the lowest-index one, whatever the
// thread count. With one, the aftermath: roll failed shards back to
// their epoch checkpoints, advance every shard's health machine, square
// the planet ledger, and recover the failed shards' federated bids.
void FederatedExchange::ContainFailures(EpochState& st) {
  if (!config_.supervisor.enabled) {
    RethrowLowestIndex(st.errors);
    return;
  }
  HealthBlock& health_block = st.health_block;
  health_block.supervised = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    AdvanceShardHealth(st, k);
  }

  // Failed shards' treasury floats: the restore reverted their
  // shard-local endowments, so nothing was spent and each team's full
  // outstanding allowance returns to its planet account.
  if (treasury_ != nullptr) {
    Money refunded;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      if (!st.summaries[k].failed) continue;
      for (const std::string& team : treasury_->Teams()) {
        refunded += treasury_->RefundAllowance(team, k, st.epoch);
      }
    }
    health_block.refunded_allowance = refunded.ToDouble();
  }

  // Failed shards' routed federated bids are re-queued for next epoch's
  // router pass (their money never left the planet ledger).
  for (std::size_t i = 0; i < st.routing.decisions.size(); ++i) {
    const std::optional<std::size_t> shard = st.routing.decisions[i].shard;
    if (!shard.has_value() || !st.summaries[*shard].failed) continue;
    pending_.push_back(st.epoch_bids[i]);
    ++health_block.rerouted_bids;
    const std::uint64_t trace = st.epoch_bids[i].trace;
    if (telemetry_ != nullptr && trace != 0) {
      telemetry::Span& span =
          telemetry_->EmitSpan(trace, "reroute", st.epoch, -1);
      span.attrs.emplace_back("reason", "every part on a failed shard");
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
    reg.AddCounter("fed_supervisor_restored_checkpoints", planet,
                   static_cast<double>(health_block.restored_checkpoints));
    reg.AddCounter("fed_supervisor_rerouted_bids", planet,
                   static_cast<double>(health_block.rerouted_bids));
    reg.AddCounter("fed_supervisor_refunded_allowance_dollars", planet,
                   health_block.refunded_allowance);
  }
}

// Shard k's post-epoch health transition under supervision: a failed
// shard is restored to its checkpoint and degraded or quarantined, a
// clean one heals; telemetry records the transition and a failed shard's
// flight dump.
void FederatedExchange::AdvanceShardHealth(EpochState& st,
                                           const std::size_t k) {
  HealthBlock& health_block = st.health_block;
  ShardEpochSummary& summary = st.summaries[k];
  ShardHealthStatus& h = health_[k];
  const ShardHealth before = h.status;
  if (!h.active) {
    ++health_block.quarantined_shards;
  } else if (summary.failed) {
    // Bit-identical rejoin: the shard resumes from the exact state the
    // epoch started from, whatever the failure corrupted.
    shards_[k]->market->Restore(checkpoints_[k]);
    ++h.restored_checkpoints;
    ++health_block.restored_checkpoints;
    ++health_block.failed_shards;
    ++h.failure_streak;
    if (h.failure_streak >= config_.supervisor.quarantine_streak) {
      // The streak is NOT reset: a recovering shard that fails its
      // probation epoch re-quarantines immediately, with backoff doubled
      // per quarantine up to the cap.
      h.status = ShardHealth::kQuarantined;
      int backoff = kBackoffBase;
      for (int i = 0; i < h.quarantine_count && backoff < kBackoffCap;
           ++i) {
        backoff <<= 1;
      }
      h.backoff_remaining = std::min(backoff, kBackoffCap);
      ++h.quarantine_count;
    } else {
      h.status = ShardHealth::kDegraded;
    }
  } else {
    h.failure_streak = 0;
    h.status = ShardHealth::kHealthy;
  }
  summary.health = h.status;

  if (telemetry_ == nullptr) return;
  const std::string transition = std::string(ToString(before)) + " -> " +
                                 std::string(ToString(h.status));
  if (h.active && before != h.status) {
    telemetry_->RecordEvent(k, st.epoch, "health: " + transition);
  }
  if (config_.telemetry.watchdog.recording_rules) {
    telemetry::MetricsRegistry& reg = telemetry_->registry();
    telemetry::Labels by_shard;
    by_shard.shard = shards_[k]->name;
    if (h.active && before != h.status) {
      // The health-flap counter the derived flap-rate rule reads.
      reg.AddCounter("fed_health_transitions", by_shard, 1.0);
    }
    // Post-transition health for the console (encodes the ShardHealth
    // enum value; telemetry/console.cpp decodes it).
    reg.SetGauge("fed_shard_health", by_shard,
                 static_cast<double>(h.status));
  }
  if (!summary.failed) return;
  // Containment flight dump: the failed shard's recent ring (the health
  // event above included) plus the full span chain of every traced bid
  // that touched it this epoch.
  std::vector<std::pair<std::uint64_t, std::vector<std::string>>> chains;
  for (const RoutedBid& routed : st.routing.routed) {
    if (routed.shard != k) continue;
    const std::uint64_t trace = st.epoch_bids[routed.bid_index].trace;
    if (trace == 0) continue;
    bool seen = false;
    for (const auto& chain : chains) {
      seen = seen || chain.first == trace;
    }
    if (seen) continue;
    std::vector<std::string> lines;
    for (const telemetry::Span* span : telemetry_->tracer().SpansOf(trace)) {
      lines.push_back(span->Render());
    }
    chains.emplace_back(trace, std::move(lines));
  }
  // The failing epoch's own report rolled back with the shard, so the
  // work tree shows the run-up — the recent epochs where the shard was
  // burning its round budget — plus an explicit note for the unrecorded
  // failure epoch.
  std::string work_tree;
  if (config_.telemetry.profiler.work_accounting) {
    work_tree = telemetry_->profiler()->RenderWorkTree(k, st.epoch);
  }
  telemetry_->recorder().DumpShard(k, shards_[k]->name, st.epoch,
                                   summary.failure, transition, chains,
                                   work_tree);
}

// Arbitrage digest: map this epoch's awards into the warehouse before
// the money is swept.
void FederatedExchange::ObserveArbitrage(const EpochState& st,
                                         FederationReport& report) {
  if (arbitrage_ == nullptr) return;
  arbitrage_->ObserveEpoch(report);
  report.arbitrage.enabled = true;
  // Only bids that actually reached a shard's auction count — a buy
  // whose funding push came back empty was never submitted.
  report.arbitrage.buys_planned = st.arb_buys;
  report.arbitrage.sells_planned = st.arb_sells;
  report.arbitrage.holdings_units = arbitrage_->TotalHoldingsUnits();
  report.arbitrage.realized_pnl = arbitrage_->RealizedPnl();
  report.arbitrage.mark_to_market = arbitrage_->MarkToMarket();
}

// Settlement sweep: every federated team's shard-local balance is
// withdrawn to the shard operator and reconciled on the planet ledger.
// Between epochs the shard floats are therefore exactly zero and the
// treasury holds every federated dollar. Every (team, shard) pair is
// swept: a shard restored to its checkpoint is back at the epoch
// boundary, where every federated balance is zero and RefundAllowance has
// already squared its float, and a quarantined shard was never funded,
// so both sweep nothing. RunEpoch's unwind path calls this too, with no
// report to fill.
void FederatedExchange::SweepTreasury(const int epoch,
                                      FederationReport* report) {
  if (treasury_ == nullptr) return;
  const std::string memo = "treasury sweep epoch " + std::to_string(epoch);
  for (const std::string& team : treasury_->Teams()) {
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const Money remaining = shards_[k]->market->WithdrawTeam(team, memo);
      treasury_->Sweep(team, k, remaining, epoch);
    }
  }
  if (report == nullptr) return;
  TreasurySnapshot& snapshot = report->treasury;
  snapshot.enabled = true;
  snapshot.minted = treasury_->TotalMinted().ToDouble();
  snapshot.burned = treasury_->TotalBurned().ToDouble();
  snapshot.team_total = treasury_->TeamTotal().ToDouble();
  snapshot.float_total = treasury_->FloatTotal().ToDouble();
  snapshot.shard_net_total = treasury_->ShardNetTotal().ToDouble();
  snapshot.transfers = treasury_->Transfers().size();

  // Treasury flow gauges, read after the sweep so the float total is the
  // between-epochs invariant (zero) unless something leaked.
  if (telemetry_ == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry_->registry();
  const telemetry::Labels planet;
  reg.SetGauge("fed_treasury_minted_dollars", planet, snapshot.minted);
  reg.SetGauge("fed_treasury_burned_dollars", planet, snapshot.burned);
  reg.SetGauge("fed_treasury_team_dollars", planet, snapshot.team_total);
  reg.SetGauge("fed_treasury_float_dollars", planet, snapshot.float_total);
  reg.SetGauge("fed_treasury_transfers", planet,
               static_cast<double>(snapshot.transfers));
  if (config_.telemetry.watchdog.recording_rules) {
    // |Σ accounts − (minted − burned)|: zero whenever the treasury's
    // conservation contract holds. The watchdog's drift alert watches
    // this; scenarios forbid it from ever firing.
    reg.SetGauge("fed_treasury_conservation_residual_dollars", planet,
                 std::abs(treasury_->CirculatingSupply().ToDouble() -
                          (snapshot.minted - snapshot.burned)));
  }
}

// Rebalance: whole-cluster migrations planned off the merged report and
// applied serially — both shards' capacities change before the next
// epoch.
void FederatedExchange::Rebalance(FederationReport& report) {
  if (rebalancer_ == nullptr) return;
  for (const MigrationPlan& plan :
       rebalancer_->Observe(report, ShardFleets())) {
    // Capacity never migrates into or out of a shard still proving
    // itself: a failed/quarantined shard's empty report reads as 0%
    // utilization, which would otherwise make it the planet's favourite
    // donor.
    if (health_[plan.from_shard].status != ShardHealth::kHealthy ||
        health_[plan.to_shard].status != ShardHealth::kHealthy) {
      continue;
    }
    report.migrations.push_back(ApplyMigration(plan, report.epoch));
  }
}

// Telemetry close: planet gauges, the watchdog pass and the logical
// epoch snapshot.
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
