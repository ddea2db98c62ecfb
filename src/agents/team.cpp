#include "agents/team.h"

#include <algorithm>

#include "agents/strategy.h"
#include "common/check.h"

namespace pm::agents {

TeamAgent::TeamAgent(TeamProfile profile,
                     std::vector<double> initial_price_beliefs,
                     std::uint64_t seed)
    : profile_(std::move(profile)),
      // λ = 0.55: beliefs move more than halfway to each observed price —
      // the brisk adaptation §V.C reports. Markup starts at 60 % over
      // belief and decays fast, shrinking the median premium across
      // auctions (Table I).
      learner_(std::move(initial_price_beliefs), 0.55, 0.60, 0.35),
      rng_(seed),
      holdings_() {
  PM_CHECK_MSG(!profile_.name.empty(), "team needs a name");
  PM_CHECK_MSG(!profile_.home_cluster.empty(),
               "team '" << profile_.name << "' needs a home cluster");
}

std::vector<bid::Bid> TeamAgent::MakeBids(const MarketView& view) {
  PM_CHECK(view.registry != nullptr);
  StrategyContext ctx;
  ctx.profile = &profile_;
  ctx.view = &view;
  ctx.learner = &learner_;
  ctx.rng = &rng_;
  ctx.holdings = &holdings_;
  ctx.placement_penalty = &placement_penalty_;
  switch (profile_.strategy) {
    case StrategyKind::kTruthfulGrowth:
      return TruthfulGrowthBids(ctx);
    case StrategyKind::kPremiumSticky:
      return PremiumStickyBids(ctx);
    case StrategyKind::kOpportunistMover:
      return OpportunistMoverBids(ctx);
    case StrategyKind::kLowballSeller:
      return LowballSellerBids(ctx);
    case StrategyKind::kArbitrageur:
      return ArbitrageurBids(ctx);
  }
  PM_CHECK_MSG(false, "unknown strategy kind");
  return {};
}

void TeamAgent::ExtendPoolSpace(std::span<const double> fixed_prices) {
  // Only the learner needs explicit growth; holdings_ is resized to the
  // registry on demand by its consumers (strategy and settlement).
  learner_.ExtendBeliefs(fixed_prices);
}

void TeamAgent::ObserveOutcome(std::span<const double> settled_prices,
                               const std::vector<BidOutcome>& outcomes) {
  learner_.Observe(settled_prices);
  // Placement memory: only auctions that actually carried placement
  // feedback (some outcome has awarded buy units) move the penalty EWMA,
  // so with the market's outcome_feedback gate off this method touches
  // nothing beyond the price beliefs — the bit-identical contract.
  bool any_feedback = false;
  for (const BidOutcome& outcome : outcomes) {
    any_feedback = any_feedback || outcome.awarded_units > 0.0;
  }
  if (!any_feedback) return;
  placement_penalty_.resize(learner_.NumPools(), 0.0);
  for (double& penalty : placement_penalty_) {
    penalty *= 1.0 - kPlacementPenaltyStep;
  }
  for (const BidOutcome& outcome : outcomes) {
    for (PoolId pool : outcome.unplaced_pools) {
      if (pool >= placement_penalty_.size()) continue;
      placement_penalty_[pool] =
          std::min(1.0, placement_penalty_[pool] + kPlacementPenaltyStep);
    }
  }
}

}  // namespace pm::agents
