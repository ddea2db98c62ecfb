#include "agents/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>

#include "common/check.h"

namespace pm::agents {
namespace {

/// Scales a footprint by the growth rate, with a floor so small teams
/// still request a placeable quantum.
cluster::TaskShape GrowthDelta(const TeamProfile& profile) {
  cluster::TaskShape delta = profile.footprint * profile.growth_rate;
  delta.cpu = std::max(delta.cpu, 1.0);
  delta.ram_gb = std::max(delta.ram_gb, 2.0);
  delta.disk_tb = std::max(delta.disk_tb, 0.1);
  return delta;
}

/// The pool of `kind` in `cluster`, which must exist.
PoolId RequirePool(const PoolRegistry& registry, std::size_t cluster,
                   ResourceKind kind) {
  const PoolId id = registry.PoolOf(cluster, kind);
  PM_CHECK_MSG(id != kInvalidPool, "cluster '"
                                       << registry.Clusters()[cluster]
                                       << "' missing pool for kind "
                                       << pm::ToString(kind));
  return id;
}

/// Cluster index of the team's home cluster.
std::size_t HomeCluster(const PoolRegistry& registry,
                        const TeamProfile& profile) {
  const auto home = registry.FindCluster(profile.home_cluster);
  PM_CHECK_MSG(home.has_value(),
               "home cluster '" << profile.home_cluster << "' has no pools");
  return *home;
}

/// Whether `delta` fits in the operator's free capacity of `cluster`
/// (strategies avoid bidding into walls — proxies would just drop out).
bool FitsFreeCapacity(const MarketView& view, std::size_t cluster,
                      const cluster::TaskShape& delta) {
  for (ResourceKind kind : kAllResourceKinds) {
    if (delta.Of(kind) <= 0.0) continue;
    const PoolId id = view.registry->PoolOf(cluster, kind);
    if (id == kInvalidPool) return false;
    if (view.free_capacity[id] < delta.Of(kind)) return false;
  }
  return true;
}

/// Up to `k` alternative clusters for `delta`, cheapest first: every
/// cluster except `home` and `skip` that is not chronically unplaceable
/// (penalty >= kPlacementPenaltyAvoid) and has room, ranked by believed
/// cost scaled by the placement-penalty factor; equal costs break by
/// cluster name, not by index. Names are unique, so the order is total
/// and the k kept are exactly the first k of a full sort. With no
/// placement memory (the outcome_feedback-off path) every factor is
/// exactly 1 and nothing is dropped, so the ranking is bit-identical to
/// the price-only ordering.
std::vector<std::size_t> CheapestAlternatives(
    const StrategyContext& ctx, const cluster::TaskShape& delta,
    std::size_t home, std::optional<std::size_t> skip, std::size_t k) {
  const PoolRegistry& registry = *ctx.view->registry;
  const std::vector<std::string>& names = registry.Clusters();
  const auto cheaper = [&](const std::pair<double, std::size_t>& a,
                           const std::pair<double, std::size_t>& b) {
    return std::tie(a.first, names[a.second]) <
           std::tie(b.first, names[b.second]);
  };
  // The k cheapest so far, kept sorted: an insertion pass over one
  // cluster at a time.
  std::vector<std::pair<double, std::size_t>> kept;
  kept.reserve(k + 1);
  for (std::size_t c = 0; c < names.size(); ++c) {
    if (c == home || c == skip) continue;
    const double penalty =
        ClusterPlacementPenalty(registry, ctx.placement_penalty, c);
    if (penalty >= kPlacementPenaltyAvoid) continue;
    if (!FitsFreeCapacity(*ctx.view, c, delta)) continue;
    const std::pair<double, std::size_t> candidate(
        BelievedClusterCost(registry, *ctx.learner, c, delta) *
            (1.0 + kPlacementPenaltyWeight * penalty),
        c);
    if (kept.size() == k && !cheaper(candidate, kept.back())) continue;
    kept.insert(std::upper_bound(kept.begin(), kept.end(), candidate,
                                 cheaper),
                candidate);
    if (kept.size() > k) kept.pop_back();
  }
  std::vector<std::size_t> clusters;
  clusters.reserve(kept.size());
  for (const auto& [cost, c] : kept) clusters.push_back(c);
  return clusters;
}

double ClampLimit(double limit, double budget) {
  return std::min(limit, budget);
}

}  // namespace

std::vector<bid::Bid> TruthfulGrowthBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const cluster::TaskShape delta = GrowthDelta(profile);
  const PoolRegistry& registry = *ctx.view->registry;
  const std::size_t home = HomeCluster(registry, profile);

  // XOR over the home cluster and up to three believed-cheapest
  // alternatives that currently have room. Growth is a *new*
  // deployment, so unlike a relocation it carries only a small setup
  // penalty when placed away from home.
  std::vector<bid::Bundle> bundles;
  bundles.push_back(BundleForCluster(registry, home, delta));
  double cheapest_cost =
      BelievedClusterCost(registry, *ctx.learner, home, delta);
  const double setup_penalty = 0.02 * profile.relocation_cost;
  for (std::size_t c : CheapestAlternatives(ctx, delta, home,
                                            std::nullopt, 3)) {
    const double cost =
        BelievedClusterCost(registry, *ctx.learner, c, delta) +
        setup_penalty;
    bundles.push_back(BundleForCluster(registry, c, delta));
    cheapest_cost = std::min(cheapest_cost, cost);
  }

  // Bid the believed cost plus a safety markup (§V.C: reserve prices
  // associated with bids track believed market prices with a shrinking
  // cushion). The team's private value caps the limit: when even the
  // believed price exceeds the value, the team sits out.
  const double markup = ctx.learner->Markup();
  const double noise = ctx.rng->Uniform(0.97, 1.03);
  const double value = cheapest_cost * profile.value_multiplier;
  double limit =
      std::min(cheapest_cost * (1.0 + markup) * noise, value);
  limit = ClampLimit(limit, ctx.view->budget);
  if (limit <= 0.0) return {};

  bid::Bid bid;
  bid.name = profile.name + "/grow";
  bid.bundles = std::move(bundles);
  bid.limit = limit;
  return {std::move(bid)};
}

std::vector<bid::Bid> PremiumStickyBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const cluster::TaskShape delta = GrowthDelta(profile);
  const PoolRegistry& registry = *ctx.view->registry;
  const std::size_t home = HomeCluster(registry, profile);

  // Home cluster only: this team's engineering cost of moving is so
  // high it pays whatever the home pool asks.
  const double believed =
      BelievedClusterCost(registry, *ctx.learner, home, delta);
  const double markup = ctx.learner->Markup();
  // A sticky surcharge on top of the learning markup that never fully
  // decays — the persistent high-percentile bid outliers of Figure 7.
  const double sticky = ctx.rng->Uniform(0.50, 1.10);
  const double ceiling =
      believed * profile.value_multiplier * 1.5;  // Deep pockets.
  const double limit = ClampLimit(
      std::min(believed * (1.0 + markup + sticky), ceiling),
      ctx.view->budget);
  if (limit <= 0.0) return {};

  bid::Bid bid;
  bid.name = profile.name + "/grow-home";
  bid.bundles = {BundleForCluster(registry, home, delta)};
  bid.limit = limit;
  return {std::move(bid)};
}

std::vector<bid::Bid> OpportunistMoverBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const PoolRegistry& registry = *ctx.view->registry;

  // Sell a slice of the home footprint, rebuy the same slice in the
  // believed-cheapest cold cluster — if the believed saving clears the
  // relocation cost.
  const cluster::TaskShape slice = profile.footprint * 0.5;
  if (slice.cpu < 1.0) return {};

  const std::size_t home = HomeCluster(registry, profile);
  const double home_value =
      BelievedClusterCost(registry, *ctx.learner, home, slice);
  std::optional<std::size_t> best;
  double best_cost = std::numeric_limits<double>::infinity();
  double best_ranked = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < registry.Clusters().size(); ++c) {
    if (c == home) continue;
    if (!FitsFreeCapacity(*ctx.view, c, slice)) continue;
    // Rank destinations with the placement-failure factor but keep the
    // raw believed cost for the relocation gate and the bid limit (a
    // distrusted cluster should lose the ranking, not inflate what the
    // team is willing to pay elsewhere).
    const double penalty =
        ClusterPlacementPenalty(registry, ctx.placement_penalty, c);
    if (penalty >= kPlacementPenaltyAvoid) continue;
    const double cost =
        BelievedClusterCost(registry, *ctx.learner, c, slice);
    const double ranked = cost * (1.0 + kPlacementPenaltyWeight * penalty);
    if (ranked < best_ranked) {
      best_ranked = ranked;
      best_cost = cost;
      best = c;
    }
  }
  if (!best.has_value()) return {};
  if (home_value - best_cost < profile.relocation_cost) {
    // The spread does not pay for the reconfiguration work; fall back
    // to growing like a truthful bidder would.
    return TruthfulGrowthBids(ctx);
  }

  std::vector<bid::Bid> bids;

  // Offer: sell the home slice at slightly below its believed market
  // value — enough discount to clear, tightening as beliefs converge
  // (the §V.C adaptation applies to asks as much as to bids).
  bid::Bid offer;
  offer.name = profile.name + "/vacate";
  offer.bundles = {-BundleForCluster(registry, home, slice)};
  offer.limit =
      -std::max(home_value * ctx.rng->Uniform(0.80, 0.95), 1.0);
  bids.push_back(std::move(offer));

  // Bid: rebuy in the cold cluster (with a couple of fallbacks).
  bid::Bid rebuy;
  rebuy.name = profile.name + "/relocate";
  rebuy.bundles = {BundleForCluster(registry, *best, slice)};
  for (std::size_t c : CheapestAlternatives(ctx, slice, home, best, 2)) {
    rebuy.bundles.push_back(BundleForCluster(registry, c, slice));
  }
  const double markup = ctx.learner->Markup();
  rebuy.limit = ClampLimit(
      std::min(best_cost * (1.0 + markup),
               best_cost * profile.value_multiplier),
      ctx.view->budget);
  if (rebuy.limit > 0.0) bids.push_back(std::move(rebuy));
  return bids;
}

std::vector<bid::Bid> LowballSellerBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const PoolRegistry& registry = *ctx.view->registry;
  const std::size_t home = HomeCluster(registry, profile);

  // Selling only pays where capacity is scarce: when the home cluster
  // is not congested there is no premium to harvest, so sit out (the
  // paper's offers concentrate in overutilized clusters, Fig. 7).
  const PoolId home_cpu = registry.PoolOf(home, ResourceKind::kCpu);
  if (home_cpu != kInvalidPool &&
      ctx.view->utilization[home_cpu] < 0.45) {
    return {};
  }

  // Shrink 30 % of the footprint. §V.C: "in some auctions a number of
  // sellers will enter very low prices confident that there will be
  // ample competition and that the final market price will be fair" —
  // so this seller intermittently asks a token price (which spikes the
  // mean premium γ) and otherwise asks near believed value.
  const cluster::TaskShape slice = profile.footprint * 0.3;
  if (slice.cpu < 1.0) return {};
  bid::Bid offer;
  offer.name = profile.name + "/shrink";
  offer.bundles = {-BundleForCluster(registry, home, slice)};
  if (ctx.rng->Bernoulli(0.4)) {
    offer.limit = -ctx.rng->Uniform(0.5, 2.0);  // Nearly free.
  } else {
    const double believed =
        BelievedClusterCost(registry, *ctx.learner, home, slice);
    offer.limit = -std::max(believed * ctx.rng->Uniform(0.75, 0.92),
                            1.0);
  }
  return {std::move(offer)};
}

std::vector<bid::Bid> ArbitrageurBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const PoolRegistry& registry = *ctx.view->registry;
  std::vector<double>& holdings = *ctx.holdings;
  holdings.resize(registry.size(), 0.0);

  std::vector<bid::Bid> bids;

  // Resell warehoused holdings where the reserve already exceeds the
  // believed price paid (margin locked in by the uniform price).
  bid::Bundle sell_bundle;
  {
    std::vector<bid::BundleItem> items;
    for (PoolId r = 0; r < registry.size(); ++r) {
      if (holdings[r] <= 0.0) continue;
      if (ctx.view->reserve_prices[r] >
          ctx.learner->Belief(r) * 1.10) {
        items.push_back(bid::BundleItem{r, -holdings[r]});
      }
    }
    sell_bundle = bid::Bundle(std::move(items));
  }
  if (!sell_bundle.Empty()) {
    bid::Bid sell;
    sell.name = profile.name + "/arb-sell";
    sell.bundles = {sell_bundle};
    // Ask just under believed value: the margin was locked in at
    // purchase; underselling the belief only risks the uniform price.
    const double believed_value = -sell_bundle.Dot(
        [&] {
          std::vector<double> beliefs(registry.size(), 0.0);
          for (PoolId r = 0; r < registry.size(); ++r) {
            beliefs[r] = ctx.learner->Belief(r);
          }
          return beliefs;
        }());
    sell.limit = -std::max(believed_value * 0.9, 1.0);
    bids.push_back(std::move(sell));
  }

  // Buy the pool with the biggest believed discount to reserve: where
  // the operator's congestion weighting marked capacity down hardest.
  PoolId best_pool = kInvalidPool;
  double best_discount = 0.0;
  for (PoolId r = 0; r < registry.size(); ++r) {
    if (ctx.view->free_capacity[r] <= 0.0) continue;
    const double belief = ctx.learner->Belief(r);
    if (belief <= 0.0) continue;
    const double discount =
        (belief - ctx.view->reserve_prices[r]) / belief;
    if (discount > best_discount) {
      best_discount = discount;
      best_pool = r;
    }
  }
  if (best_pool != kInvalidPool && best_discount > 0.15) {
    const double qty =
        std::min(ctx.view->free_capacity[best_pool] * 0.10,
                 profile.footprint.cpu);
    if (qty >= 1.0) {
      bid::Bid buy;
      buy.name = profile.name + "/arb-buy";
      buy.bundles = {bid::Bundle({bid::BundleItem{best_pool, qty}})};
      buy.limit = ClampLimit(
          qty * ctx.learner->Belief(best_pool) * 0.95,
          ctx.view->budget);
      if (buy.limit > 0.0) bids.push_back(std::move(buy));
    }
  }
  return bids;
}

double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               std::size_t cluster) {
  if (penalty == nullptr || penalty->empty()) return 0.0;
  double worst = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    const PoolId id = registry.PoolOf(cluster, kind);
    if (id == kInvalidPool || id >= penalty->size()) continue;
    worst = std::max(worst, (*penalty)[id]);
  }
  return worst;
}

bool IsArbitrageBidName(std::string_view bid_name) {
  return bid_name.find("/arb-") != std::string_view::npos;
}

bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             std::size_t cluster,
                             const cluster::TaskShape& delta) {
  std::vector<bid::BundleItem> items;
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = delta.Of(kind);
    if (qty == 0.0) continue;
    items.push_back(
        bid::BundleItem{RequirePool(registry, cluster, kind), qty});
  }
  return bid::Bundle(std::move(items));
}

double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner, std::size_t cluster,
                           const cluster::TaskShape& delta) {
  double cost = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = delta.Of(kind);
    if (qty == 0.0) continue;
    cost += qty * learner.Belief(RequirePool(registry, cluster, kind));
  }
  return cost;
}

}  // namespace pm::agents
