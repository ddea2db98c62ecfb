#include "exchange/market.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "auction/system_check.h"
#include "common/check.h"
#include "common/phase_span.h"
#include "net/distributed_auction.h"

namespace pm::exchange {

auction::ClockAuctionConfig DefaultMarketAuctionConfig() {
  auction::ClockAuctionConfig config;
  config.policy_kind =
      auction::ClockAuctionConfig::PolicyKind::kMultiplicative;
  config.alpha = 0.4;
  config.delta = 0.08;
  config.step_floor = 1e-3;
  config.demand_eps = 2e-3;  // Tolerate 0.2 % aggregate oversubscription.
  config.intra_round_bisection = true;
  return config;
}

Market::Market(cluster::Fleet* fleet,
               std::vector<agents::TeamAgent>* agents,
               std::vector<double> fixed_prices, MarketConfig config)
    : fleet_(fleet),
      agents_(agents),
      fixed_prices_(std::move(fixed_prices)),
      config_(std::move(config)),
      pricer_(config_.weighting != nullptr
                  ? std::shared_ptr<const reserve::WeightingFunction>(
                        config_.weighting)
                  : std::shared_ptr<const reserve::WeightingFunction>(
                        reserve::MakeExp2Weighting())),
      ledger_(),
      accounts_(&ledger_),
      rng_(config_.seed) {
  PM_CHECK(fleet_ != nullptr && agents_ != nullptr);
  PM_CHECK_MSG(fixed_prices_.size() == fleet_->NumPools(),
               "fixed prices must cover every pool");
  PM_CHECK_MSG(config_.supply_fraction > 0.0 &&
                   config_.supply_fraction <= 1.0,
               "supply fraction must be in (0, 1]");
  // §I quota bootstrap: every team starts entitled to exactly what it
  // already runs, and its usage is charged accordingly.
  for (const cluster::Cluster& cl : fleet_->clusters()) {
    for (const cluster::PlacedJob& placed : cl.jobs()) {
      ApplyJobQuota(placed.job.team, cl.name(), placed.job.TotalDemand(),
                    /*add=*/true);
    }
  }
}

void Market::ApplyJobQuota(const std::string& team,
                           const std::string& cluster,
                           const cluster::TaskShape& demand, bool add) {
  const PoolRegistry& registry = fleet_->registry();
  if (add) {
    quota_.Charge(team, registry, cluster, demand);
  } else {
    quota_.Refund(team, registry, cluster, demand);
  }
  for (ResourceKind kind : kAllResourceKinds) {
    const double amount = demand.Of(kind);
    if (amount <= 0.0) continue;
    const auto pool = registry.Find(PoolKey{cluster, kind});
    PM_CHECK(pool.has_value());
    if (add) {
      quota_.Grant(team, *pool, amount);
    } else {
      quota_.Release(team, *pool, amount);
    }
  }
}

std::vector<double> Market::CurrentReservePrices() const {
  return pricer_.PriceFleet(*fleet_);
}

std::vector<double> Market::OfferedSupply() const {
  std::vector<double> supply = fleet_->FreeVector();
  for (double& s : supply) s *= config_.supply_fraction;
  return supply;
}

void Market::SubmitExternalBid(ExternalBid bid) {
  PM_CHECK_MSG(!bid.team.empty(), "external bid needs a billing team");
  external_.push_back(std::move(bid));
}

void Market::SubmitExternalBids(std::vector<ExternalBid> bids) {
  external_.reserve(external_.size() + bids.size());
  for (ExternalBid& bid : bids) {
    SubmitExternalBid(std::move(bid));
  }
}

void Market::EndowTeam(const std::string& team, Money amount,
                       std::string memo) {
  accounts_.Endow(team, amount, std::move(memo));
}

Money Market::WithdrawTeam(const std::string& team, std::string memo) {
  return accounts_.WithdrawAll(team, std::move(memo));
}

cluster::Cluster Market::ExtractCluster(const std::string& name) {
  // Validate before touching the quota table: if the fleet-level check
  // below were left to fail after the refunds, a rejected extraction
  // would leave jobs running with no recorded quota.
  PM_CHECK_MSG(fleet_->NumClusters() > 1,
               "cannot extract the fleet's last cluster");
  cluster::Cluster& cl = fleet_->ClusterByName(name);
  // Undo the quota bootstrap for every job leaving with the cluster; the
  // destination market re-applies it on adoption.
  for (const cluster::PlacedJob& placed : cl.jobs()) {
    ApplyJobQuota(placed.job.team, name, placed.job.TotalDemand(),
                  /*add=*/false);
  }
  return fleet_->ExtractCluster(name);
}

void Market::AdoptCluster(cluster::Cluster cluster) {
  const std::string name = cluster.name();
  fleet_->AdoptCluster(std::move(cluster));
  const PoolRegistry& registry = fleet_->registry();
  // Grow per-pool market state to the enlarged registry. New pools enter
  // at the operator's unit cost — the same pre-market baseline every
  // other pool started from.
  if (fixed_prices_.size() < registry.size()) {
    const std::vector<double> costs = fleet_->CostVector();
    for (std::size_t r = fixed_prices_.size(); r < registry.size(); ++r) {
      fixed_prices_.push_back(costs[r]);
    }
  }
  for (agents::TeamAgent& agent : *agents_) {
    agent.ExtendPoolSpace(fixed_prices_);
  }
  // Re-key the incoming jobs into this market's id space: job ids are
  // only unique per market, and a collision would corrupt fleet-level
  // job lookups. The counter first jumps past every adopted id so no
  // fresh id can land on a job still waiting to be renumbered.
  // Placements and list order are untouched.
  cluster::Cluster& cl = fleet_->ClusterByName(name);
  std::vector<cluster::JobId> ids;
  ids.reserve(cl.jobs().size());
  for (const cluster::PlacedJob& placed : cl.jobs()) {
    ids.push_back(placed.job.id);
    next_job_id_ = std::max(next_job_id_, placed.job.id + 1);
  }
  for (const cluster::JobId id : ids) cl.RenumberJob(id, next_job_id_++);
  // Quota bootstrap for the adopted jobs (their teams may be foreign —
  // administratively owned by another shard's population; the table
  // tracks them all the same).
  for (const cluster::PlacedJob& placed : cl.jobs()) {
    ApplyJobQuota(placed.job.team, name, placed.job.TotalDemand(),
                  /*add=*/true);
  }
}

Market::CollectedBids Market::CollectBids(
    const std::vector<double>& reserve,
    const std::vector<double>& utilization,
    const std::vector<double>& free_supply) {
  CollectedBids collected;
  collected.per_agent.assign(agents_->size(), 0);
  for (std::size_t a = 0; a < agents_->size(); ++a) {
    agents::TeamAgent& agent = (*agents_)[a];
    agents::MarketView view;
    view.registry = &fleet_->registry();
    view.reserve_prices = reserve;
    view.utilization = utilization;
    view.free_capacity = free_supply;
    view.budget = accounts_.BudgetOf(agent.profile().name).ToDouble();
    view.auction_index = AuctionCount();
    std::vector<bid::Bid> bids = agent.MakeBids(view);
    collected.per_agent[a] = bids.size();
    for (std::size_t i = 0; i < bids.size(); ++i) {
      // Budget discipline at the gate: a buyer's limit may not exceed its
      // budget (strategies already clamp; enforce anyway). The vector-π
      // entries are what the mechanism reads when present, so they get
      // the same clamp.
      if (bids[i].limit > view.budget) bids[i].limit = view.budget;
      for (double& limit : bids[i].bundle_limits) {
        if (limit > view.budget) limit = view.budget;
      }
      const std::string problem =
          bid::ValidateBid(bids[i], fleet_->NumPools());
      if (!problem.empty()) continue;  // Malformed bids never reach the auction.
      collected.origin.push_back(BidOrigin{a, i, agent.profile().name});
      collected.bids.push_back(std::move(bids[i]));
    }
  }
  // External (federation-routed) bids join after the resident agents', in
  // submission order, under the same budget gate. The clamp must cover
  // the vector-π extension too — bundle_limits, when present, are what
  // the mechanism reads, so clamping only the scalar would let an
  // external bid spend past its budget.
  for (ExternalBid& external : external_) {
    // Validate before the clamp to tell the two rejection classes apart:
    // a bid malformed as submitted is a validation failure; one that only
    // breaks after its limit clamps to the local budget was starved.
    const bool valid_as_submitted =
        bid::ValidateBid(external.bid, fleet_->NumPools()).empty();
    const double budget = accounts_.BudgetOf(external.team).ToDouble();
    if (external.bid.limit > budget) external.bid.limit = budget;
    for (double& limit : external.bid.bundle_limits) {
      if (limit > budget) limit = budget;
    }
    const std::string problem =
        bid::ValidateBid(external.bid, fleet_->NumPools());
    if (!problem.empty()) {
      // Rejected: recorded with the reason so the federation can see —
      // and assert on — routed parts that never reached the auction.
      collected.external_rejections.push_back(ExternalRejection{
          external.team, external.bid.name,
          valid_as_submitted ? ExternalRejection::Reason::kBudget
                             : ExternalRejection::Reason::kValidation});
      continue;
    }
    BidOrigin origin;
    origin.team = external.team;
    collected.origin.push_back(std::move(origin));
    collected.bids.push_back(std::move(external.bid));
  }
  external_.clear();
  bid::AssignUserIds(collected.bids);
  return collected;
}

std::vector<double> Market::ComputePreliminaryPrices(
    std::vector<bid::Bid> bids) const {
  bid::AssignUserIds(bids);
  auction::ClockAuction auction(std::move(bids), OfferedSupply(),
                                CurrentReservePrices());
  return auction.Run(config_.auction).prices;
}

AuctionReport Market::RunAuction() {
  AuctionReport report;
  report.auction_index = AuctionCount();
  report.fixed_prices = fixed_prices_;
  report.pre_utilization = fleet_->UtilizationVector();
  report.reserve_prices = pricer_.Price(
      fleet_->registry(), report.pre_utilization, fleet_->CostVector());

  // First auction: endow budgets at the fixed prices.
  if (!endowed_) {
    const std::vector<Money> endowments = ComputeEndowments(
        fleet_->registry(), *agents_, fixed_prices_, config_.endowment);
    for (std::size_t a = 0; a < agents_->size(); ++a) {
      accounts_.Endow((*agents_)[a].profile().name, endowments[a],
                      "initial endowment");
    }
    endowed_ = true;
  }

  const std::vector<double> supply = OfferedSupply();

  CollectedBids collected =
      CollectBids(report.reserve_prices, report.pre_utilization, supply);
  report.num_bids = collected.bids.size();
  report.external_rejected = collected.external_rejections.size();
  report.external_rejections = std::move(collected.external_rejections);

  auction::ClockAuction auction(collected.bids, supply,
                                report.reserve_prices);
  auction::ClockAuctionResult result;
  if (config_.distributed_proxy_nodes > 0) {
    // Wire path: the same mechanism behind pm::net proxy nodes.
    net::DistributedConfig dist;
    dist.num_proxy_nodes = config_.distributed_proxy_nodes;
    dist.auction = config_.auction;
    if (config_.wire_faults.Enabled()) {
      dist.faults = config_.wire_faults;
      // Each auction gets its own fault pattern, reproducibly: mix the
      // configured wire seed with the auction index.
      dist.faults.seed =
          SplitMix64(config_.wire_faults.seed ^
                     (0xa0761d6478bd642fULL *
                      (static_cast<std::uint64_t>(history_.size()) + 1)))
              .Next();
    }
    net::DistributedResult distributed =
        net::RunDistributedAuction(auction, dist);
    result = std::move(distributed.result);
    report.transport_messages = distributed.transport.messages_sent;
    report.transport_bytes = distributed.transport.bytes_sent;
    report.wire_frames_retried = distributed.transport.frames_retried;
    report.wire_frames_deduped = distributed.transport.frames_duplicated +
                                 distributed.transport.frames_stale;
  } else {
    result = auction.Run(config_.auction);
  }
  report.rounds = result.rounds;
  report.converged = result.converged;
  report.demand_evaluations = result.demand_evaluations;
  report.proxies_reevaluated = result.proxies_reevaluated;
  report.bisection_probes = result.bisection_probes;
  report.full_collections = result.full_collections;
  report.incremental_collections = result.incremental_collections;
  report.dot_blocks = result.dot_blocks;
  report.dirty_bidders = result.dirty_bidders;
  report.phases = std::move(result.phases);
  report.settled_prices = result.prices;

  if (config_.audit_system && result.converged) {
    // The audit tolerance must cover the configured aggregate-demand
    // tolerance, or converged-by-definition results would be flagged.
    const double tolerance = std::max(1e-6, config_.auction.demand_eps);
    const auction::SystemCheckResult audit =
        auction::CheckSystemConstraints(auction, result, tolerance);
    PM_CHECK_MSG(audit.Feasible(),
                 "SYSTEM constraints violated: " << audit.ToString());
  }

  // Wall channel: the settle span covers settlement computation through
  // the full pipeline (billing → quota → placement → refunds → moves).
  ScopedPhaseTimer settle_timer(
      config_.auction.collect_phase_timings ? &report.phases : nullptr,
      "settle");

  const auction::Settlement settlement = auction::Settle(auction, result);
  report.num_winners = settlement.awards.size();
  report.premium = auction::ComputePremiumStats(settlement);
  report.settled_fraction = settlement.settled_fraction;
  report.operator_revenue = settlement.operator_revenue;

  RecordTrades(collected, settlement, report);

  // Settlement pipeline: billing → quota → placement → outcome →
  // (gated) refunds → move pricing, award by award.
  std::vector<SettlementPipeline::AwardInput> inputs;
  inputs.reserve(settlement.awards.size());
  for (const auction::Award& award : settlement.awards) {
    const BidOrigin& origin = collected.origin[award.user];
    SettlementPipeline::AwardInput input;
    input.bid = &collected.bids[award.user];
    input.award = &award;
    input.team = origin.team;
    input.agent = origin.IsExternal()
                      ? SettlementPipeline::AwardInput::kExternalAgent
                      : origin.agent;
    inputs.push_back(std::move(input));
  }
  SettlementPipeline pipeline(fleet_, agents_, &quota_, &accounts_,
                              config_.settlement, config_.max_task_shape,
                              &next_job_id_);
  pipeline.Execute(inputs, report.settled_prices, report);
  settle_timer.Stop();
  RefreshTeamProfiles();

  // Let every agent observe the uniform clearing prices (losers learn
  // from the public signal too — §III.A's "clear signaling").
  std::vector<std::vector<agents::BidOutcome>> outcomes(agents_->size());
  for (std::size_t a = 0; a < agents_->size(); ++a) {
    outcomes[a].resize(collected.per_agent[a]);
  }
  // report.awards is index-aligned with settlement.awards (the pipeline
  // appends one record per input, in order), so award a's placement
  // outcome is report.awards[a].outcome.
  for (std::size_t a = 0; a < settlement.awards.size(); ++a) {
    const auction::Award& award = settlement.awards[a];
    const BidOrigin& origin = collected.origin[award.user];
    if (origin.IsExternal()) continue;  // No resident agent to notify.
    if (origin.local < outcomes[origin.agent].size()) {
      agents::BidOutcome outcome{true, award.bundle_index, award.payment};
      if (config_.outcome_feedback) {
        const PlacementOutcome& placed = report.awards[a].outcome;
        outcome.awarded_units = placed.awarded_units;
        outcome.placed_units = placed.placed_units;
        for (const PoolFill& fill : placed.fills) {
          if (fill.placed < fill.awarded) {
            outcome.unplaced_pools.push_back(fill.pool);
          }
        }
      }
      outcomes[origin.agent][origin.local] = std::move(outcome);
    }
  }
  for (std::size_t a = 0; a < agents_->size(); ++a) {
    (*agents_)[a].ObserveOutcome(report.settled_prices, outcomes[a]);
  }

  report.post_utilization = fleet_->UtilizationVector();
  history_.push_back(report);
  return history_.back();
}

void Market::RecordTrades(const CollectedBids& collected,
                          const auction::Settlement& settlement,
                          AuctionReport& report) const {
  // Each cluster's pre-auction utilization percentile per kind (Figure
  // 7's y-axis), one table for every traded item.
  const PoolRegistry& registry = fleet_->registry();
  const std::vector<double> percentiles = fleet_->UtilizationPercentiles();
  for (const auction::Award& award : settlement.awards) {
    const bid::Bid& b = collected.bids[award.user];
    const std::string& team = collected.origin[award.user].team;
    const bid::Bundle& bundle =
        b.bundles[static_cast<std::size_t>(award.bundle_index)];
    for (const bid::BundleItem& item : bundle.items()) {
      const PoolKey& key = registry.KeyOf(item.pool);
      // A pool can outlive its cluster (migrated to another shard); such
      // quota-only trades carry no live percentile, and a 0.0 sentinel
      // would read as a real coldest-cluster rank in the Figure 7
      // distributions — drop the sample instead.
      if (percentiles[item.pool] == cluster::kDeadPoolPercentile) continue;
      TradeSample sample;
      sample.kind = key.kind;
      sample.is_bid = item.qty > 0.0;
      sample.qty = std::abs(item.qty);
      sample.team = team;
      sample.util_percentile = percentiles[item.pool];
      report.trades.push_back(std::move(sample));
    }
  }
}

void Market::RefreshTeamProfiles() {
  // Recompute footprints from the fleet and re-home teams to their
  // center of mass. One pass over the clusters in fleet order and each
  // cluster's jobs in placement order: every sum accumulates in the
  // order the fleet-wide job list gives.
  std::vector<agents::TeamAgent>& agents = *agents_;
  std::unordered_map<std::string_view, std::size_t> slot_of;
  std::vector<std::size_t> slot(agents.size());
  for (std::size_t a = 0; a < agents.size(); ++a) {
    slot[a] = slot_of.try_emplace(agents[a].profile().name, a).first->second;
  }
  struct Tally {
    cluster::TaskShape footprint;
    // (fleet cluster index, cpu) in first-touch order; empty for a team
    // with no jobs. Jobs arrive cluster by cluster, so a team's current
    // cluster is always last.
    std::vector<std::pair<std::size_t, double>> cpu;
  };
  std::vector<Tally> tallies(agents.size());
  const std::vector<cluster::Cluster>& clusters = fleet_->clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const cluster::PlacedJob& placed : clusters[c].jobs()) {
      const auto it = slot_of.find(placed.job.team);
      if (it == slot_of.end()) continue;  // Not a resident team.
      const cluster::TaskShape demand = placed.job.TotalDemand();
      Tally& tally = tallies[it->second];
      tally.footprint += demand;
      if (tally.cpu.empty() || tally.cpu.back().first != c) {
        tally.cpu.emplace_back(c, 0.0);
      }
      tally.cpu.back().second += demand.cpu;
    }
  }
  for (std::size_t a = 0; a < agents.size(); ++a) {
    const Tally& tally = tallies[slot[a]];
    if (tally.cpu.empty()) continue;  // Keep the seed footprint.
    agents::TeamProfile& profile = agents[a].mutable_profile();
    profile.footprint = tally.footprint;
    // Home is the cluster with the most cpu, when that is positive.
    double best_cpu = 0.0;
    std::size_t best = 0;
    int at_best = 0;
    for (std::size_t i = 0; i < tally.cpu.size(); ++i) {
      if (tally.cpu[i].second > best_cpu) {
        best_cpu = tally.cpu[i].second;
        best = i;
        at_best = 1;
      } else if (best_cpu > 0.0 && tally.cpu[i].second == best_cpu) {
        ++at_best;
      }
    }
    if (at_best == 1) {
      profile.home_cluster = clusters[tally.cpu[best].first].name();
    } else if (at_best > 1) {
      // An exact tie goes to whichever tied cluster a string-keyed
      // unordered_map, filled in first-touch order, iterates first — the
      // pick every recorded outcome was made with.
      std::unordered_map<std::string, double> by_name;
      for (const auto& [c, cpu] : tally.cpu) {
        by_name.emplace(clusters[c].name(), cpu);
      }
      best_cpu = 0.0;
      for (const auto& [cluster_name, cpu] : by_name) {
        if (cpu > best_cpu) {
          best_cpu = cpu;
          profile.home_cluster = cluster_name;
        }
      }
    }
  }
}

}  // namespace pm::exchange
