// planetmarket: the ascending clock auction (Algorithm 1, §III.C).
//
//   1: Given: U users, R resources, starting prices p̃, increment g
//   2: t = 0, p(0) = p̃
//   3: loop
//   4:   collect bids x_u(t) = G_u(p(t)) ∀u
//   5:   excess demand z(t) = Σ_u x_u(t) − s        (s = operator supply)
//   6:   if z(t) ≤ 0 break
//   7:   else p(t+1) = p(t) + g(x(t), p(t)); t ← t+1
//
// The operator's sellable capacity enters as the dense supply vector `s`;
// teams selling resources enter as bids with negative quantities (both
// appear in the paper — "the company itself may be mapped into clock
// auction participants"). Convergence is guaranteed when every participant
// is a pure buyer or pure seller (§III.C.3); with traders the round cap
// backstops the contrived cycling cases.
#pragma once

#include <memory>
#include <vector>

#include "auction/demand_engine.h"
#include "auction/increment_policy.h"
#include "auction/proxy.h"
#include "bid/bid.h"
#include "common/phase_span.h"
#include "common/thread_pool.h"

namespace pm::auction {

/// Tuning knobs for one clock-auction run. Defaults converge briskly on
/// markets with supply-normalized excess demand.
struct ClockAuctionConfig {
  /// Step scale α (interpretation depends on normalize_excess).
  double alpha = 0.25;

  /// Per-round cap δ for the capped policies.
  double delta = 0.05;

  /// Which g(x, p) family to use; built lazily from alpha/delta unless
  /// `policy` is set explicitly.
  enum class PolicyKind {
    kAdditive,
    kCapped,
    kRelativeCapped,
    kCostNormalized,
    kMultiplicative,
  };
  PolicyKind policy_kind = PolicyKind::kRelativeCapped;

  /// Explicit policy instance; overrides policy_kind when non-null.
  const IncrementPolicy* policy = nullptr;

  /// Base costs for PolicyKind::kCostNormalized (one per pool).
  std::vector<double> base_costs;

  /// Floor for relative/multiplicative steps on zero-priced pools, in
  /// price units.
  double step_floor = 1e-3;

  /// Divide excess demand by max(supply, 1) before applying the policy, so
  /// α reads as "relative price step per 100 % oversubscription" and is
  /// scale-free across markets. Set false for the literal Eq. (3).
  bool normalize_excess = true;

  /// Safety cap on rounds; hitting it reports converged = false (traders
  /// can cycle forever, §III.C.3).
  int max_rounds = 20000;

  /// Tolerance for the z ≤ 0 stopping test, in (normalized) units.
  double demand_eps = 1e-9;

  /// When the final step overshoots (z flips from positive to ≤ 0),
  /// bisect the last step to land closer to the market-clearing price —
  /// our implementation of the clock-proxy family's undersell control.
  bool intra_round_bisection = false;

  /// Bisection iterations (each costs one demand collection).
  int bisection_iters = 24;

  /// Optional pool for parallel proxy evaluation (line 4 fan-out).
  ThreadPool* thread_pool = nullptr;

  /// Record the full (prices, excess) trajectory per round.
  bool record_trajectory = false;

  /// Record wall-clock collect/bisect phase spans into
  /// ClockAuctionResult::phases (the profiler's wall channel,
  /// src/common/phase_span.h). Costs a few steady_clock reads per run
  /// and never touches prices, decisions, or any counter. Serial loop
  /// only — the wire path's demand work runs inside the proxy nodes.
  bool collect_phase_timings = false;

  /// §III.B's p ≤ pmax modification: per-pool price ceilings "to keep the
  /// system away from weird or unfair values". Empty = unbounded (the
  /// paper's default). When a pool pins at its cap with excess demand
  /// remaining, no uniform price can clear it: the auction stops, reports
  /// converged = false and lists the pool in capped_pools — the residual
  /// demand must be rationed out of band.
  std::vector<double> price_caps;
};

/// Reports why `config` cannot run on the broadcast wire protocol
/// (pm::net::RunDistributedAuction), or an empty string when it can.
/// Serial-only knobs do not map onto the announce/reply protocol:
/// intra-round bisection's demand probes are a serial search, the caller's
/// thread pool would race the proxy-node threads, and trajectory recording
/// is owned by the serial loop. Callers that stage a config for the wire
/// path validate with this instead of silently dropping the knobs.
std::string DistributedIncompatibility(const ClockAuctionConfig& config);

/// Snapshot of one auction round (recorded when requested).
struct RoundRecord {
  std::vector<double> prices;
  std::vector<double> excess;  // Raw (un-normalized) excess demand.
};

/// Outcome of a clock-auction run.
struct ClockAuctionResult {
  /// Final uniform linear prices per pool.
  std::vector<double> prices;

  /// Final proxy decision per user (index-aligned with the bid vector).
  std::vector<ProxyDecision> decisions;

  /// Final raw excess demand z (all ≤ demand tolerance when converged).
  std::vector<double> excess;

  /// Rounds executed (price updates + 1 final evaluation).
  int rounds = 0;

  /// False when max_rounds was exhausted with positive excess demand, or
  /// when price caps pinned a pool that still had excess demand.
  bool converged = false;

  /// Pools pinned at their price cap with residual excess demand (only
  /// populated when ClockAuctionConfig::price_caps is set).
  std::vector<PoolId> capped_pools;

  /// Total demand evaluations of G_u (U per round plus bisection probes);
  /// the unit of the paper's linear-scaling claim.
  long long demand_evaluations = 0;

  /// Proxies the demand engine actually re-evaluated (argmin sweeps).
  /// At most demand_evaluations; the gap is the incremental-re-evaluation
  /// win — rounds and bisection probes that move prices in only a subset
  /// of pools re-evaluate only the bidders touching those pools.
  long long proxies_reevaluated = 0;

  /// Demand probes issued by intra-round bisection (zero when the knob
  /// is off) — the bisection-phase slice of demand_evaluations.
  long long bisection_probes = 0;

  /// DemandEngine workspace phase split: full arena sweeps versus
  /// incremental (delta) collections served over the run. Zero on the
  /// wire path, where the engines live inside the proxy nodes.
  long long full_collections = 0;
  long long incremental_collections = 0;

  /// Profiler work counters (deterministic): dot blocks swept by full
  /// collections, and bidders re-evaluated incrementally.
  /// Zero on the wire path, like the collection counters above.
  long long dot_blocks = 0;
  long long dirty_bidders = 0;

  /// Wall-clock collect/bisect spans (collect_phase_timings only).
  std::vector<PhaseSpan> phases;

  /// Per-round history when record_trajectory was set.
  std::vector<RoundRecord> trajectory;
};

/// Empty; kept only because the bench/planet/ benchmark passes one.
struct DemandEngineConfig {};

/// The auctioneer. Owns copies of the bids, compiled once into a
/// DemandEngine arena that serves every demand collection (full sweeps at
/// round 0, incremental re-evaluation afterwards).
class ClockAuction {
 public:
  /// `supply` and `reserve_prices` are dense per-pool vectors of equal
  /// size R; every bid must reference pools < R and pass ValidateBids.
  /// Unused fourth parameter: kept only because bench/planet/ passes it.
  ClockAuction(std::vector<bid::Bid> bids, std::vector<double> supply,
               std::vector<double> reserve_prices,
               DemandEngineConfig = {});

  /// Runs Algorithm 1. Idempotent: each call restarts from the reserve
  /// prices with a fresh demand workspace.
  ClockAuctionResult Run(const ClockAuctionConfig& config) const;

  std::size_t NumUsers() const { return bids_.size(); }
  std::size_t NumPools() const { return supply_.size(); }
  const std::vector<bid::Bid>& bids() const { return bids_; }
  const std::vector<double>& supply() const { return supply_; }
  const std::vector<double>& reserve_prices() const { return reserve_; }

  /// The compiled demand engine (shared with the distributed auctioneer
  /// and the benchmarks).
  const DemandEngine& engine() const { return engine_; }

 private:
  /// Validates the inputs, then compiles the arena. Runs in the member
  /// initializer list so `engine_` can be a value member.
  static DemandEngine BuildEngine(const std::vector<bid::Bid>& bids,
                                  const std::vector<double>& supply,
                                  const std::vector<double>& reserve);

  std::vector<bid::Bid> bids_;
  std::vector<double> supply_;
  std::vector<double> reserve_;
  DemandEngine engine_;
};

}  // namespace pm::auction
