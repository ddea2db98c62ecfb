// planetmarket: the trading platform (§V.A).
//
// Market glues every substrate together into the paper's experimental
// resource economy:
//
//   utilization ψ ──► congestion-weighted reserves p̃ = φ(ψ)·c   (§IV)
//   team agents  ──► bids {Q_u, π_u}                             (§II)
//   free capacity ─► operator supply s
//   clock auction ─► uniform prices + allocations                (§III)
//   settlement   ──► ledger transfers, job migrations, reports   (§V)
//
// RunAuction() executes one full round; run it periodically (directly or
// from a sim::PeriodicProcess) to reproduce the §V.B longitudinal
// experiments. ComputePreliminaryPrices() is the non-binding price tick
// displayed during the bid-collection window (Figure 5).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "agents/team.h"
#include "auction/clock_auction.h"
#include "cluster/fleet.h"
#include "cluster/quota.h"
#include "common/rng.h"
#include "exchange/accounts.h"
#include "exchange/endowment.h"
#include "exchange/report.h"
#include "exchange/settlement_pipeline.h"
#include "net/faults.h"
#include "reserve/reserve_pricer.h"

namespace pm::exchange {

/// Clock-auction defaults tuned for whole-market rounds: a multiplicative
/// (geometric) clock so high-priced pools move in proportion, a small
/// aggregate-demand tolerance so the final sub-percent excess over large
/// pools does not crawl for hundreds of rounds, and intra-round bisection
/// to land near the clearing price despite the geometric steps.
auction::ClockAuctionConfig DefaultMarketAuctionConfig();

/// Market configuration.
struct MarketConfig {
  /// Clock-auction tuning for each round.
  auction::ClockAuctionConfig auction = DefaultMarketAuctionConfig();

  /// Unread; kept only because the bench/planet/ benchmark passes it on.
  auction::DemandEngineConfig demand_engine;

  /// Congestion weighting for reserve prices (defaults to φ1 = exp2, the
  /// steepest of the paper's example curves).
  std::shared_ptr<const reserve::WeightingFunction> weighting;

  /// Budget endowment policy, applied before the first auction.
  EndowmentPolicy endowment;

  /// Fraction of current free capacity the operator offers for sale each
  /// round.
  double supply_fraction = 1.0;

  /// Audit every converged auction against the SYSTEM constraints
  /// (§III.B) and fail loudly on violation.
  bool audit_system = true;

  /// Per-task caps used when materializing won quota into jobs (tasks are
  /// split so they fit real machines).
  cluster::TaskShape max_task_shape{8.0, 32.0, 4.0};

  /// Outcome-aware settlement gates (refunds for unplaced units, §V.B
  /// move pricing). Defaults reproduce the legacy settlement bit for
  /// bit; PlacementOutcomes are recorded on every award either way.
  SettlementPolicy settlement;

  /// When on, each resident agent's BidOutcome carries its award's
  /// placement outcome (awarded/placed units, the pools whose fill fell
  /// short), feeding the agents' placement-failure memory so strategies
  /// down-weight chronically unplaceable clusters. Off (default), the
  /// outcome fields stay zero and every agent's state — and therefore
  /// every future epoch — is bit-identical to the price-only learner.
  bool outcome_feedback = false;

  /// Seed of the market's private random stream (exposed via rng()).
  /// The core auction round is fully deterministic and draws nothing from
  /// it; the stream exists for market-scoped stochastic extensions
  /// (operator tooling, stochastic admission policies) so they never have
  /// to mint their own generator. Give every co-resident market its own
  /// seed — a federated exchange derives one per shard — so whatever does
  /// draw from the streams stays independent across markets.
  std::uint64_t seed = 0x5eedULL;

  /// When > 0, every binding auction runs over the pm::net wire protocol
  /// behind this many proxy nodes instead of the in-process serial engine
  /// (bit-identical by construction for every auction config —
  /// distribution changes where the work runs, not the mechanism).
  /// ComputePreliminaryPrices stays serial — it is a non-binding local
  /// simulation either way.
  std::size_t distributed_proxy_nodes = 0;

  /// Lossy-wire injection for the distributed proxy path (ignored when
  /// distributed_proxy_nodes == 0). Off by default; when enabled, every
  /// auction derives a per-auction fault seed from `wire_faults.seed` and
  /// the auction index, so fault patterns differ across auctions but are
  /// reproducible bit for bit. Auction results are unchanged by the
  /// faults (exactly-once in-order reassembly) or the run throws
  /// CheckFailure on retry exhaustion.
  net::FaultConfig wire_faults;
};

/// The periodic market over one fleet and one team population.
class Market {
 public:
  /// `fleet` and `agents` must outlive the market. `fixed_prices` are the
  /// pre-market per-pool prices (Figure 6's baseline).
  Market(cluster::Fleet* fleet, std::vector<agents::TeamAgent>* agents,
         std::vector<double> fixed_prices, MarketConfig config);

  /// Runs one binding auction round end-to-end and returns its report
  /// (also appended to History()).
  AuctionReport RunAuction();

  /// A bid submitted from outside the market's own agent population — the
  /// federation router's cross-market parts, or any front end accepting
  /// bids on behalf of remote teams. `team` is the billing identity;
  /// `bid.name` should follow the "<team>/<tag>" convention so awards can
  /// be mapped back. The bid is queued and joins the next RunAuction after
  /// the resident agents' bids (submission order preserved); it settles
  /// through the normal path — quota moves, jobs materialize, money flows
  /// through `team`'s account. Buy limits are clamped to the team's
  /// budget, so fund the team first (EndowTeam).
  struct ExternalBid {
    std::string team;
    bid::Bid bid;
  };
  void SubmitExternalBid(ExternalBid bid);

  /// Batch gate: queues a whole per-shard routing batch in one call,
  /// preserving vector order (equivalent to SubmitExternalBid per entry,
  /// minus the per-call overhead — the federation router submits each
  /// shard's epoch batch through this).
  void SubmitExternalBids(std::vector<ExternalBid> bids);

  /// Number of external bids currently queued for the next auction.
  std::size_t PendingExternalBids() const { return external_.size(); }

  /// Mints budget for a team (resident or external) ahead of an auction.
  void EndowTeam(const std::string& team, Money amount, std::string memo);

  /// Withdraws a team's entire remaining budget back to the operator and
  /// returns it — the federation treasury's end-of-epoch sweep.
  Money WithdrawTeam(const std::string& team, std::string memo);

  /// Detaches a whole cluster for migration to another shard's market
  /// (the federation's fleet-transfer protocol): quota usage of its jobs
  /// is refunded and their entitlements released here, then the cluster —
  /// machines and jobs included — is extracted from the fleet. Its pools
  /// stay interned at zero capacity.
  cluster::Cluster ExtractCluster(const std::string& name);

  /// Attaches a migrated cluster: the fleet interns its pools, per-pool
  /// market state grows to match (fixed prices extend at the operator's
  /// unit cost, every resident agent's price beliefs extend at those
  /// prices), and the incoming jobs' usage and entitlements are charged
  /// to their teams — the same bootstrap the constructor applies.
  void AdoptCluster(cluster::Cluster cluster);

  /// Non-binding price simulation on an explicit bid set: what the
  /// front end shows while the bid window is open. User ids are assigned;
  /// no money moves, no jobs move, agents learn nothing.
  std::vector<double> ComputePreliminaryPrices(
      std::vector<bid::Bid> bids) const;

  /// Current congestion-weighted reserve prices (recomputed from live
  /// fleet state).
  std::vector<double> CurrentReservePrices() const;

  const std::vector<AuctionReport>& History() const { return history_; }

  Money TeamBudget(const std::string& team) const {
    return accounts_.BudgetOf(team);
  }

  const Ledger& ledger() const { return ledger_; }
  const cluster::Fleet& fleet() const { return *fleet_; }
  const std::vector<double>& fixed_prices() const { return fixed_prices_; }

  /// What an auction sells: the fleet's free capacity per pool, scaled
  /// by `supply_fraction`. Routing layers size shards by it too.
  std::vector<double> OfferedSupply() const;

  /// The §I quota registry: entitlements granted/released by settled
  /// trades, usage charged/refunded as jobs come and go. Teams start
  /// entitled to exactly what they already run. Mutable access lets
  /// admission-control layers (e.g. ChurnProcess) share the table.
  const cluster::QuotaTable& quota() const { return quota_; }
  cluster::QuotaTable& mutable_quota() { return quota_; }

  /// Number of auctions run so far.
  int AuctionCount() const { return static_cast<int>(history_.size()); }

  /// The market's private random stream (derived from MarketConfig::seed;
  /// independent of every agent's stream). Market-scoped stochastic
  /// policies draw from here so that co-resident markets never share
  /// generator state.
  RandomStream& rng() { return rng_; }

  /// The seed this market was constructed with.
  std::uint64_t seed() const { return config_.seed; }

  /// Serializes the market's full mutable state — fleet (machines, jobs,
  /// pool-interning order), every resident agent (price beliefs, markup,
  /// private RNG, holdings, placement memory), ledger, quota table,
  /// market RNG and a digest of the auction history — into one checksummed
  /// frame. Must be taken at an epoch boundary: no external bids may be
  /// queued (CHECKed). Restore() on a market built with the same
  /// constructor arguments resumes the exact draw-for-draw behaviour of
  /// the snapshotted one; Snapshot() after a round trip is byte-identical.
  /// The frame is written into `reuse` (cleared first), so a caller that
  /// passes back its previous frame keeps that frame's capacity; the
  /// bytes do not depend on what `reuse` held.
  std::vector<std::uint8_t> Snapshot(
      std::vector<std::uint8_t> reuse = {}) const;

  /// Restores a frame produced by Snapshot() into this market. The market
  /// must front the same configuration (config, fixed-price length) and
  /// the same resident agent population (names and strategies are
  /// CHECK-matched) as the snapshotted one; fleet and agent state are
  /// overwritten in place. Queued external bids are discarded — the
  /// snapshot predates them by construction.
  void Restore(const std::vector<std::uint8_t>& frame);

 private:
  /// Where a collected bid came from: a resident agent (index + position
  /// in its batch, for outcome fan-back) or an external submission
  /// (agent == kExternalOrigin). `team` is always the billing identity.
  struct BidOrigin {
    static constexpr std::size_t kExternalOrigin =
        static_cast<std::size_t>(-1);
    std::size_t agent = kExternalOrigin;
    std::size_t local = 0;
    std::string team;

    bool IsExternal() const { return agent == kExternalOrigin; }
  };

  struct CollectedBids {
    std::vector<bid::Bid> bids;
    /// For bid i: its origin (index-aligned with `bids`).
    std::vector<BidOrigin> origin;
    /// Per-agent count of bids (for outcome fan-back).
    std::vector<std::size_t> per_agent;
    /// External bids bounced at the gate, with the reason (reported).
    std::vector<ExternalRejection> external_rejections;
  };

  /// The §I quota bootstrap for one job, shared by construction (every
  /// fleet job), cluster adoption (add = true: Charge + Grant) and
  /// cluster extraction (add = false: Refund + Release).
  void ApplyJobQuota(const std::string& team, const std::string& cluster,
                     const cluster::TaskShape& demand, bool add);

  CollectedBids CollectBids(const std::vector<double>& reserve,
                            const std::vector<double>& utilization,
                            const std::vector<double>& free_supply);

  void RecordTrades(const CollectedBids& collected,
                    const auction::Settlement& settlement,
                    AuctionReport& report) const;

  /// Recomputes every agent's footprint from the fleet and re-homes teams
  /// whose center of mass moved.
  void RefreshTeamProfiles();

  cluster::Fleet* fleet_;
  std::vector<agents::TeamAgent>* agents_;
  std::vector<double> fixed_prices_;
  MarketConfig config_;
  reserve::ReservePricer pricer_;
  Ledger ledger_;
  MarketAccounts accounts_;
  cluster::QuotaTable quota_;
  RandomStream rng_;
  std::vector<ExternalBid> external_;  // Queued for the next auction.
  std::vector<AuctionReport> history_;
  bool endowed_ = false;
  cluster::JobId next_job_id_ = 1'000'000;  // Jobs created by the market.
};

}  // namespace pm::exchange
