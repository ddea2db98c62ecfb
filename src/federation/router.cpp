#include "federation/router.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>

#include "common/check.h"

namespace pm::federation {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Kinds the requirement actually asks for.
bool HasPositiveQuantity(const cluster::TaskShape& quantity) {
  for (ResourceKind kind : kAllResourceKinds) {
    if (quantity.Of(kind) > 0.0) return true;
  }
  return false;
}

}  // namespace

std::string_view ToString(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kHomeAffinity:
      return "home-affinity";
    case RoutingPolicy::kCheapestPrice:
      return "cheapest-price";
  }
  return "unknown";
}

MarketRouter::MarketRouter(RouterConfig config, std::vector<ShardView> views)
    : config_(std::move(config)), views_(std::move(views)) {
  PM_CHECK_MSG(!views_.empty(), "router needs at least one shard");
  PM_CHECK_MSG(config_.spill_threshold > 0.0,
               "spill threshold must be positive");
  for (const ShardView& view : views_) {
    PM_CHECK_MSG(view.registry != nullptr,
                 "shard view '" << view.name << "' has no registry");
    PM_CHECK_MSG(view.reserve_prices.size() == view.registry->size() &&
                     view.free_capacity.size() == view.registry->size() &&
                     view.fixed_prices.size() == view.registry->size(),
                 "shard view '" << view.name
                                << "' vectors must cover every pool");
  }
}

ShardQuote MarketRouter::Quote(std::size_t shard,
                               const cluster::TaskShape& quantity) const {
  PM_CHECK(shard < views_.size());
  const ShardView& view = views_[shard];
  ShardQuote best;
  if (view.health == ShardHealth::kQuarantined) {
    return best;  // Sitting out this epoch: never a routing target.
  }
  const double health_penalty =
      view.health == ShardHealth::kHealthy
          ? 0.0
          : config_.degraded_heat_penalty;
  bool have_best = false;
  bool best_feasible = false;
  const std::vector<std::string>& clusters = view.registry->Clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    ShardQuote quote;
    quote.viable = true;
    quote.cluster = clusters[c];
    quote.fit = kInf;
    bool usable = true;
    for (ResourceKind kind : kAllResourceKinds) {
      const double qty = quantity.Of(kind);
      if (qty <= 0.0) continue;
      const PoolId pool = view.registry->PoolOf(c, kind);
      if (pool == kInvalidPool) {
        usable = false;
        break;
      }
      quote.reserve_cost += view.reserve_prices[pool] * qty;
      quote.fixed_cost += view.fixed_prices[pool] * qty;
      quote.fit = std::min(quote.fit, view.free_capacity[pool] / qty);
    }
    if (!usable) continue;
    if (quote.fit == kInf) quote.fit = 0.0;  // Nothing was requested.
    quote.heat =
        quote.fixed_cost > 0.0 ? quote.reserve_cost / quote.fixed_cost : 1.0;
    // Failure-domain shedding: a shard still proving itself after a
    // contained failure reads hotter than its prices claim.
    quote.heat *= 1.0 + health_penalty;
    const bool feasible = quote.fit >= 1.0;
    // Feasible clusters beat infeasible ones; within a class, cheapest
    // reserve cost wins; ties keep the earliest-interned cluster.
    bool better = false;
    if (!have_best) {
      better = true;
    } else if (feasible != best_feasible) {
      better = feasible;
    } else if (feasible) {
      better = quote.reserve_cost < best.reserve_cost;
    } else {
      better = quote.fit > best.fit;
    }
    if (better) {
      best = quote;
      best_feasible = feasible;
      have_best = true;
    }
  }
  return best;  // viable stays false when no cluster covered the kinds.
}

bid::Bid MarketRouter::Materialize(const ShardQuote& quote,
                                   std::size_t shard,
                                   const FederatedBid& fed) const {
  const ShardView& view = views_[shard];
  std::vector<bid::BundleItem> items;
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = fed.quantity.Of(kind);
    if (qty <= 0.0) continue;
    const auto pool = view.registry->Find(PoolKey{quote.cluster, kind});
    PM_CHECK(pool.has_value());
    items.push_back(bid::BundleItem{*pool, qty});
  }
  bid::Bid bid;
  bid.name = "fed/" + fed.team + "/" + fed.tag;
  bid.bundles.emplace_back(std::move(items));
  bid.limit = fed.limit;
  return bid;
}

RoutingResult MarketRouter::Route(
    const std::vector<FederatedBid>& bids) const {
  RoutingResult result;
  result.decisions.reserve(bids.size());
  const std::size_t num_shards = views_.size();

  // Batched quoting: Quote() is a pure function of (views, quantity) and
  // costs a full cluster scan per shard, so quoting every shard once per
  // DISTINCT requested shape — instead of once per bid — turns an epoch
  // with B bids over D distinct shapes from B×S cluster scans into D×S.
  // Identical bids get the exact same quote object either way, so
  // routing decisions are unchanged bit for bit.
  std::map<std::array<double, kNumResourceKinds>, std::vector<ShardQuote>>
      quote_cache;
  const auto quotes_for =
      [&](const cluster::TaskShape& quantity)
      -> const std::vector<ShardQuote>& {
    std::array<double, kNumResourceKinds> key;
    for (ResourceKind kind : kAllResourceKinds) {
      key[static_cast<std::size_t>(kind)] = quantity.Of(kind);
    }
    auto it = quote_cache.find(key);
    if (it == quote_cache.end()) {
      std::vector<ShardQuote> fresh;
      fresh.reserve(num_shards);
      for (std::size_t s = 0; s < num_shards; ++s) {
        fresh.push_back(Quote(s, quantity));
      }
      it = quote_cache.emplace(key, std::move(fresh)).first;
    }
    return it->second;
  };

  for (std::size_t bid_index = 0; bid_index < bids.size(); ++bid_index) {
    const FederatedBid& fed = bids[bid_index];
    RouteDecision decision;
    decision.team = fed.team;
    decision.tag = fed.tag;
    decision.policy = config_.policy;
    if (!HasPositiveQuantity(fed.quantity) || !(fed.limit > 0.0)) {
      result.decisions.push_back(std::move(decision));  // Unroutable.
      continue;
    }

    const std::vector<ShardQuote>& quotes = quotes_for(fed.quantity);
    bool any_viable = false;
    for (const ShardQuote& quote : quotes) {
      any_viable = any_viable || quote.viable;
    }
    if (!any_viable) {
      // No shard's clusters cover the requested kinds: unroutable.
      result.decisions.push_back(std::move(decision));
      continue;
    }

    // The shard-wide cheapest, preferring shards whose quoted cluster can
    // hold the whole requirement.
    auto cheapest = [&](bool require_cool) -> std::size_t {
      std::size_t best = num_shards;
      for (int pass = 0; pass < 2 && best == num_shards; ++pass) {
        const bool need_fit = pass == 0;
        for (std::size_t s = 0; s < num_shards; ++s) {
          if (!quotes[s].viable) continue;
          if (require_cool && quotes[s].heat > config_.spill_threshold) {
            continue;
          }
          if (need_fit && quotes[s].fit < 1.0) continue;
          if (best == num_shards ||
              quotes[s].reserve_cost < quotes[best].reserve_cost) {
            best = s;
          }
        }
      }
      return best;  // num_shards when every shard was filtered out.
    };

    // kHomeAffinity without a home to prefer routes as kCheapestPrice.
    std::size_t target = num_shards;
    if (config_.policy == RoutingPolicy::kHomeAffinity &&
        !fed.home_shard.empty()) {
      std::size_t home = num_shards;
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (views_[s].name == fed.home_shard) {
          home = s;
          break;
        }
      }
      PM_CHECK_MSG(home < num_shards,
                   "unknown home shard '" << fed.home_shard << "'");
      decision.preferred_shard = home;
      decision.preferred_heat = quotes[home].heat;
      target = home;
      if (!quotes[home].viable ||
          quotes[home].heat > config_.spill_threshold) {
        // Unquotable or overheated home: spill to the cheapest cool
        // shard, or the globally cheapest when the whole planet runs
        // hot. any_viable guarantees cheapest(false) finds one.
        const std::size_t cool = cheapest(/*require_cool=*/true);
        target = cool < num_shards ? cool : cheapest(false);
        decision.spilled = target != home;
      }
    } else {
      target = cheapest(/*require_cool=*/false);
      decision.preferred_shard = target;
      decision.preferred_heat = quotes[target].heat;
    }
    decision.shard = target;
    result.routed.push_back(RoutedBid{
        target, fed.team, Materialize(quotes[target], target, fed),
        bid_index});
    result.decisions.push_back(std::move(decision));
  }
  return result;
}

}  // namespace pm::federation
