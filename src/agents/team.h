// planetmarket: engineering-team agents.
//
// Teams are the paper's "users": they hold jobs in clusters, receive a
// budget, and bid in periodic auctions through a strategy. A TeamAgent
// owns its profile, a PriceLearner (§V.C adaptation), and the state its
// profile's StrategyKind reads to turn market state into bids. The
// exchange layer invokes MakeBids before each auction and ObserveOutcome
// after settlement.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "agents/learning.h"
#include "bid/bid.h"
#include "cluster/fleet.h"
#include "common/rng.h"

namespace pm::agents {

/// Which canned strategy a team runs (see strategy.h).
enum class StrategyKind {
  kTruthfulGrowth,   // Grow where cheapest; moderate honest limits.
  kPremiumSticky,    // Grow in the home cluster, pay large premiums.
  kOpportunistMover, // Sell congested home footprint, rebuy where cheap.
  kLowballSeller,    // Offer surplus at a token ask, trust competition.
  kArbitrageur,      // Buy under-believed pools, resell over-believed.
};

/// Static description of a team.
struct TeamProfile {
  std::string name;
  std::string home_cluster;

  /// Aggregate resources the team currently runs (kept in sync with its
  /// fleet jobs by the exchange layer).
  cluster::TaskShape footprint;

  /// Fractional growth in footprint the team wants per auction (0.1 = 10%).
  double growth_rate = 0.10;

  /// Engineering cost (dollars) of reconfiguring the service for a
  /// different cluster (§V.B: "there is an engineering cost to
  /// reconfiguring applications for different resource pools").
  double relocation_cost = 0.0;

  /// Private value multiple over believed cost: how much the team's
  /// mission is worth per dollar of resources (≥ 1 for viable teams).
  double value_multiplier = 1.5;

  StrategyKind strategy = StrategyKind::kTruthfulGrowth;
};

/// Everything a strategy may look at when bidding.
struct MarketView {
  const PoolRegistry* registry = nullptr;
  std::span<const double> reserve_prices;     // This auction's p̃.
  std::span<const double> utilization;        // ψ per pool, in [0, 1].
  std::span<const double> free_capacity;      // Operator-sellable units.
  double budget = 0.0;                        // Team's spendable dollars.
  int auction_index = 0;                      // 0-based auction number.
};

/// Result of one of the team's bids, reported back after settlement.
struct BidOutcome {
  bool won = false;
  int bundle_index = -1;
  double payment = 0.0;  // Positive pays, negative receives.

  // Placement feedback, threaded from the settlement pipeline's
  // PlacementOutcome only when the market's outcome_feedback gate is on
  // (zero/empty otherwise, which leaves the agent's placement memory —
  // and therefore every bid it will ever make — bit-identical to the
  // price-only learner).
  double awarded_units = 0.0;  // Buy-side units won at auction.
  double placed_units = 0.0;   // Units that physically landed.
  std::vector<PoolId> unplaced_pools;  // Pools whose fill fell short.
};

/// EWMA step of the placement-failure memory: every feedback-carrying
/// auction decays each pool's penalty by (1 − step) and bumps pools whose
/// awarded units failed to land by step (clamped to 1). ~3 consecutive
/// failures push a pool past 0.65; ~6 clean auctions forgive it.
inline constexpr double kPlacementPenaltyStep = 0.3;

/// A bidding team.
class TeamAgent {
 public:
  /// `initial_price_beliefs` seeds the learner (the pre-market fixed
  /// prices in our experiments); `seed` derives the agent's private
  /// randomness.
  TeamAgent(TeamProfile profile, std::vector<double> initial_price_beliefs,
            std::uint64_t seed);

  /// Produces this auction's bids. User ids are left unassigned (the
  /// exchange assigns them); names are "<team>/<tag>".
  std::vector<bid::Bid> MakeBids(const MarketView& view);

  /// Digests an auction: settled prices always; `outcomes` aligned with
  /// the bids returned by the last MakeBids call.
  void ObserveOutcome(std::span<const double> settled_prices,
                      const std::vector<BidOutcome>& outcomes);

  const TeamProfile& profile() const { return profile_; }
  TeamProfile& mutable_profile() { return profile_; }

  const PriceLearner& learner() const { return learner_; }
  /// Mutable learner access for checkpoint restore only.
  PriceLearner& mutable_learner() { return learner_; }
  RandomStream& rng() { return rng_; }
  const RandomStream& rng() const { return rng_; }

  /// Grows the agent's per-pool state (price beliefs, warehouse) to cover
  /// an enlarged pool registry — called by the market when a migrated
  /// cluster is adopted. `fixed_prices[r]` seeds the belief of each new
  /// pool.
  void ExtendPoolSpace(std::span<const double> fixed_prices);

  /// Quota units the arbitrageur is currently warehousing, per pool.
  const std::vector<double>& holdings() const { return holdings_; }
  std::vector<double>& mutable_holdings() { return holdings_; }

  /// Per-pool placement-failure memory in [0, 1]: an EWMA of "this pool's
  /// awarded units did not land physically", updated by ObserveOutcome
  /// from the BidOutcome placement feedback. Empty until the first
  /// feedback arrives (never, when the market's outcome_feedback gate is
  /// off). Strategies fold it into cluster selection so teams stop
  /// growing into chronically unplaceable clusters.
  const std::vector<double>& placement_penalty() const {
    return placement_penalty_;
  }

  /// Checkpoint restore of the placement-failure memory.
  void RestorePlacementPenalty(std::vector<double> penalty) {
    placement_penalty_ = std::move(penalty);
  }

 private:
  TeamProfile profile_;
  PriceLearner learner_;
  RandomStream rng_;
  std::vector<double> holdings_;
  std::vector<double> placement_penalty_;
};

}  // namespace pm::agents
