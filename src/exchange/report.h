// planetmarket: per-auction reports.
//
// Everything the paper's evaluation section reads off an auction is
// collected here: Figure 6's market/fixed price ratios, Figure 7's
// utilization-percentile trade samples, Table I's premium statistics, plus
// the physical consequences (migrations) for the longitudinal runs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "auction/settlement.h"
#include "cluster/job.h"
#include "common/phase_span.h"
#include "common/types.h"
#include "stats/descriptive.h"

namespace pm::exchange {

/// One settled bundle item, annotated for Figure 7: the pre-auction
/// utilization percentile of the cluster the traded resource lives in.
struct TradeSample {
  ResourceKind kind = ResourceKind::kCpu;
  bool is_bid = true;           // true: bought (qty > 0); false: offered.
  double util_percentile = 0.0; // Cluster's pre-auction rank, 0–100.
  double qty = 0.0;             // Absolute units traded.
  std::string team;
};

/// One buy-side pool slice of an award: what the auction awarded versus
/// what the bin-packer physically delivered.
struct PoolFill {
  PoolId pool = 0;
  /// Units won at auction, net of same-pool sell items (> 0) — the
  /// quantity the quota grant and the payment actually covered.
  double awarded = 0.0;
  double placed = 0.0;  // Units materialized as placed jobs.
};

/// The physical fate of one award — §V.B ties market awards to real
/// reconfiguration, so every AwardRecord carries one. Sells release
/// capacity at whole-job granularity and cannot "fail"; the outcome
/// therefore tracks the buy side, where bin-packing can.
struct PlacementOutcome {
  enum class Status {
    kPlaced,   // Every bought unit landed (vacuously true for pure sells).
    kPartial,  // Some clusters placed, others failed.
    kFailed,   // No bought unit landed.
  };
  Status status = Status::kPlaced;

  /// Resident-arbitrageur trades move quota (warehouse), never jobs; no
  /// physical placement was intended.
  bool quota_only = false;

  /// Buy-side pools in cluster-delta order (deterministic).
  std::vector<PoolFill> fills;

  double awarded_units = 0.0;   // Σ fills[i].awarded.
  double placed_units = 0.0;    // Σ fills[i].placed.
  /// Units whose entitlement was handed back with the refund — equal to
  /// awarded − placed when SettlementPolicy::refund_unplaced is on, zero
  /// when the gate is off (the legacy quota-only settle).
  double refunded_units = 0.0;
  /// Dollars returned to the team for unplaced units (0 with the gate
  /// off); priced pro rata at the settled pool prices.
  double refund = 0.0;
};

std::string_view ToString(PlacementOutcome::Status status);

/// One settled award, for billing detail and premium analysis.
struct AwardRecord {
  std::string team;
  std::string bid_name;   // "<team>/<tag>" as submitted.
  int bundle_index = -1;
  double payment = 0.0;   // Positive pays, negative receives.
  double premium = 0.0;   // γ_u of Eq. (5); NaN for zero payments.
  PlacementOutcome outcome;
};

/// A physical migration executed after settlement.
struct MoveRecord {
  std::string team;
  std::string from_cluster;  // Empty for pure growth.
  std::string to_cluster;    // Empty for pure shrink.
  cluster::TaskShape amount;
  /// §V.B reconfiguration cost of the move (weights · amount); zero when
  /// SettlementPolicy::move_cost_weights is unset.
  double reconfig_cost = 0.0;
  /// Dollars actually collected from the moving team — nonzero only
  /// under SettlementPolicy::bill_moves. Billed on the physically
  /// placed shape only (a bounced placement reconfigured nothing) and
  /// clamped to the team's remaining balance at billing time, so it can
  /// undercut reconfig_cost on partial placements or empty budgets.
  double billed = 0.0;
};

/// A federation-routed bid bounced at the external-bid gate, with why —
/// budget (buy limit clamped to an empty local budget) or validation
/// (malformed as submitted). Routing layers assert on the reason.
struct ExternalRejection {
  enum class Reason { kBudget, kValidation };
  std::string team;
  std::string bid_name;
  Reason reason = Reason::kValidation;
};

std::string_view ToString(ExternalRejection::Reason reason);

/// Everything recorded about one auction round.
struct AuctionReport {
  int auction_index = 0;

  // Inputs.
  std::vector<double> fixed_prices;     // Pre-market fixed prices.
  std::vector<double> reserve_prices;   // p̃ used this round.
  std::vector<double> pre_utilization;  // ψ per pool before the round.

  // Auction mechanics.
  std::size_t num_bids = 0;
  std::size_t num_winners = 0;
  /// External (federation-routed) bids rejected at the budget/validation
  /// gate and therefore never seen by the auction.
  std::size_t external_rejected = 0;
  /// Per-bid detail for the rejections (size == external_rejected).
  std::vector<ExternalRejection> external_rejections;
  int rounds = 0;
  bool converged = false;
  long long demand_evaluations = 0;
  /// Engine-phase counters mirrored off ClockAuctionResult for the
  /// telemetry plane: argmin sweeps actually run, bisection-probe count,
  /// and the full-vs-incremental collection split (the latter two are
  /// zero on the wire path, where the engines live in the proxy nodes).
  long long proxies_reevaluated = 0;
  long long bisection_probes = 0;
  long long full_collections = 0;
  long long incremental_collections = 0;

  /// Profiler work-accounting counters (deterministic logical work,
  /// docs/observability.md "Phase profiler"): dot blocks swept by full
  /// collections and bidders re-evaluated incrementally. Like the
  /// collection split above, zero on the wire path.
  long long dot_blocks = 0;
  long long dirty_bidders = 0;

  // Wire traffic when the round ran behind pm::net proxy nodes
  // (MarketConfig::distributed_proxy_nodes > 0); zero on the in-process
  // serial path.
  long long transport_messages = 0;
  long long transport_bytes = 0;
  /// Lossy-wire recovery work (profiler channel): frames the sender
  /// retried, and duplicate/stale frames the receiver discarded.
  /// Deterministic per fault seed.
  long long wire_frames_retried = 0;
  long long wire_frames_deduped = 0;

  // Outcome.
  std::vector<double> settled_prices;
  auction::PremiumStats premium;     // Table I: median/mean of γ.
  double settled_fraction = 0.0;     // Table I: % settled.
  double operator_revenue = 0.0;
  std::vector<TradeSample> trades;   // Figure 7 samples.
  std::vector<AwardRecord> awards;   // Per-winner billing detail.

  // Physical application.
  std::vector<MoveRecord> moves;
  std::size_t jobs_added = 0;
  std::size_t jobs_removed = 0;
  std::size_t placement_failures = 0;  // Quota won but bin-packing failed.
  std::size_t partial_placements = 0;  // Awards with Status::kPartial.
  std::size_t overdrafts = 0;          // Budget violations at settlement.
  double refund_total = 0.0;  // Dollars refunded for unplaced units.
  /// Refund payouts executed (profiler channel: the op count behind
  /// refund_total — how many awards actually hit the refund path).
  std::size_t refund_ops = 0;
  /// §V.B reconfiguration charges collected from moving teams (zero
  /// unless SettlementPolicy::bill_moves is on).
  double move_billing_total = 0.0;

  // Fleet health after the round.
  std::vector<double> post_utilization;

  /// Wall-clock phase spans (collect/bisect from the auction, settle
  /// from the settlement section) when MarketConfig::phase_timings is
  /// on; the federation copies them into the profiler at the epoch
  /// barrier. Never read by any deterministic export.
  std::vector<PhaseSpan> phases;
};

/// Figure 6's series: settled/fixed price ratio per pool (NaN where the
/// fixed price is zero).
std::vector<double> PriceRatios(const AuctionReport& report);

/// Figure 7's samples for one (kind, side) cell.
std::vector<double> TradePercentiles(const AuctionReport& report,
                                     ResourceKind kind, bool is_bid);

/// Boxplot summary of one Figure 7 cell; n == 0 when there were no such
/// trades.
stats::BoxplotSummary TradeBoxplot(const AuctionReport& report,
                                   ResourceKind kind, bool is_bid);

/// Cross-cluster utilization dispersion (mean absolute deviation of the
/// per-pool utilization, as percentage points) — the shortage/surplus
/// metric tracked by the reserve ablation and the timeline bench.
double UtilizationSpread(const std::vector<double>& utilization);

/// Unit-weighted placement-failure rate over the last `window` reports:
/// Σ (awarded − placed) / Σ awarded across every award's buy-side
/// outcome, 0 when nothing was awarded. The federation router folds this
/// into shard heat — a shard that keeps winning quota it cannot place is
/// hot in a way reserve prices alone do not show.
double RecentPlacementFailureRate(const std::vector<AuctionReport>& history,
                                  int window);

}  // namespace pm::exchange
