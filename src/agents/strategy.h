// planetmarket: bidding strategies.
//
// One bid function per StrategyKind; TeamAgent::MakeBids switches on the
// team's kind. Each reproduces a bidder population the paper observed
// (§V.B–C):
//
//  * TruthfulGrowthBids — grows wherever believed-cheapest; limits close
//    to believed cost × value multiplier. The well-behaved baseline bidder.
//  * PremiumStickyBids — "teams that were willing to pay a significant
//    price premium to continue growing in congested clusters": bids only
//    on the home cluster with a large markup. Produces Figure 7's
//    high-percentile bid outliers.
//  * OpportunistMoverBids — "a number of large teams offer resources on
//    the market to take advantage of the higher prices and move to less
//    congested clusters": one offer selling part of the congested home
//    footprint, one bid rebuying in the believed-cheapest cold cluster,
//    gated on the price differential exceeding the relocation cost.
//  * LowballSellerBids — "some sellers will enter very low prices
//    confident that there will be ample competition and that the final
//    market price will be fair": asks a token minimum. Keeps Table I's
//    mean γ noisy.
//  * ArbitrageurBids — §V.C's "increasing sophistication towards
//    arbitrage opportunities": buys pools priced below belief, resells
//    warehoused holdings priced above.
#pragma once

#include <string_view>
#include <vector>

#include "agents/team.h"

namespace pm::agents {

/// What a bid function reads: the agent's own state plus the market.
struct StrategyContext {
  const TeamProfile* profile = nullptr;
  const MarketView* view = nullptr;
  PriceLearner* learner = nullptr;
  RandomStream* rng = nullptr;
  std::vector<double>* holdings = nullptr;  // Arbitrage inventory.
  /// The agent's per-pool placement-failure memory (may be null or
  /// shorter than the registry; missing pools read as penalty 0). All
  /// zeros until the market's outcome_feedback gate delivers placement
  /// feedback, in which case strategies de-prioritize — and past
  /// kPlacementPenaltyAvoid, skip — chronically unplaceable clusters.
  const std::vector<double>* placement_penalty = nullptr;
};

/// This auction's bids for each StrategyKind, from market state.
std::vector<bid::Bid> TruthfulGrowthBids(const StrategyContext& ctx);
std::vector<bid::Bid> PremiumStickyBids(const StrategyContext& ctx);
/// Falls back to TruthfulGrowthBids when the believed saving of a move
/// does not cover the relocation cost.
std::vector<bid::Bid> OpportunistMoverBids(const StrategyContext& ctx);
std::vector<bid::Bid> LowballSellerBids(const StrategyContext& ctx);
std::vector<bid::Bid> ArbitrageurBids(const StrategyContext& ctx);

/// The arbitrage naming contract shared by the resident arbitrageur
/// strategy, the federation's cross-shard ArbitrageAgent, and the
/// exchange's settlement path: a bid whose name contains "/arb-" trades
/// warehoused quota. For *resident* bidders the market adjusts the
/// agent's warehouse instead of moving jobs; external (federation-routed)
/// arbitrage settles physically — its warehouse is real placed jobs.
bool IsArbitrageBidName(std::string_view bid_name);

/// Helper shared by strategies and tests: the bundle a team of shape
/// `delta` needs in `cluster` (a cluster index of `registry`; one item
/// per resource kind with nonzero demand).
bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             std::size_t cluster,
                             const cluster::TaskShape& delta);

/// Helper: believed cost of placing `delta` in `cluster` (a cluster
/// index of `registry`).
double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner, std::size_t cluster,
                           const cluster::TaskShape& delta);

/// Weight of the placement-failure memory in cluster ranking: candidate
/// clusters are ordered by believed cost × (1 + weight × penalty), so a
/// fully distrusted cluster (penalty 1) reads 3× as expensive. The bid
/// limits themselves stay anchored to raw believed cost.
inline constexpr double kPlacementPenaltyWeight = 2.0;

/// Clusters whose penalty meets this bar are skipped outright as growth
/// or relocation alternatives — the market kept awarding there and the
/// bin-packer kept failing, so bidding again only burns budget (the
/// refund path repays money, never the lost auction round).
inline constexpr double kPlacementPenaltyAvoid = 0.6;

/// The cluster's penalty: the worst per-kind pool score in the agent's
/// placement memory (0 when the memory is null/empty — the gate-off
/// path, where every factor below multiplies by exactly 1).
double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               std::size_t cluster);

}  // namespace pm::agents
