#include "federation/router.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>

#include "common/check.h"

namespace pm::federation {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Copies placed by kMirrored (clamped to the shard count).
constexpr std::size_t kMirrorWays = 2;

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
    case RoutingPolicy::kSplit:
      return "split";
    case RoutingPolicy::kMirrored:
      return "mirrored";
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
  for (const std::string& cluster : view.registry->Clusters()) {
    ShardQuote quote;
    quote.viable = true;
    quote.cluster = cluster;
    quote.fit = kInf;
    bool usable = true;
    for (ResourceKind kind : kAllResourceKinds) {
      const double qty = quantity.Of(kind);
      if (qty <= 0.0) continue;
      const auto pool = view.registry->Find(PoolKey{cluster, kind});
      if (!pool.has_value()) {
        usable = false;
        break;
      }
      quote.reserve_cost += view.reserve_prices[*pool] * qty;
      quote.fixed_cost += view.fixed_prices[*pool] * qty;
      quote.fit = std::min(quote.fit, view.free_capacity[*pool] / qty);
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
                                   const FederatedBid& fed,
                                   const cluster::TaskShape& quantity,
                                   double limit,
                                   const std::string& suffix) const {
  const ShardView& view = views_[shard];
  std::vector<bid::BundleItem> items;
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = quantity.Of(kind);
    if (qty <= 0.0) continue;
    const auto pool = view.registry->Find(PoolKey{quote.cluster, kind});
    PM_CHECK(pool.has_value());
    items.push_back(bid::BundleItem{*pool, qty});
  }
  bid::Bid bid;
  bid.name = "fed/" + fed.team + "/" + fed.tag + suffix;
  bid.bundles.emplace_back(std::move(items));
  bid.limit = limit;
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

    RoutingPolicy policy = config_.policy;
    if (policy == RoutingPolicy::kHomeAffinity && fed.home_shard.empty()) {
      policy = RoutingPolicy::kCheapestPrice;  // No home to prefer.
    }

    switch (policy) {
      case RoutingPolicy::kHomeAffinity: {
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
        std::size_t target = home;
        if (!quotes[home].viable ||
            quotes[home].heat > config_.spill_threshold) {
          // Unquotable or overheated home: spill to the cheapest cool
          // shard, or the globally cheapest when the whole planet runs
          // hot. any_viable guarantees cheapest(false) finds one.
          const std::size_t cool = cheapest(/*require_cool=*/true);
          target = cool < num_shards ? cool : cheapest(false);
          decision.spilled = target != home;
        }
        decision.shards.push_back(target);
        result.routed.push_back(RoutedBid{
            target, fed.team,
            Materialize(quotes[target], target, fed, fed.quantity,
                        fed.limit, ""),
            bid_index});
        break;
      }
      case RoutingPolicy::kCheapestPrice: {
        const std::size_t target = cheapest(/*require_cool=*/false);
        decision.preferred_shard = target;
        decision.preferred_heat = quotes[target].heat;
        decision.shards.push_back(target);
        result.routed.push_back(RoutedBid{
            target, fed.team,
            Materialize(quotes[target], target, fed, fed.quantity,
                        fed.limit, ""),
            bid_index});
        break;
      }
      case RoutingPolicy::kSplit: {
        // Candidates: cool viable shards, or every viable shard when
        // none is cool.
        std::vector<std::size_t> candidates;
        std::size_t viable_count = 0;
        for (std::size_t s = 0; s < num_shards; ++s) {
          if (!quotes[s].viable) continue;
          ++viable_count;
          if (quotes[s].heat <= config_.spill_threshold) {
            candidates.push_back(s);
          }
        }
        decision.spilled = !candidates.empty() &&
                           candidates.size() < viable_count;
        if (candidates.empty()) {
          for (std::size_t s = 0; s < num_shards; ++s) {
            if (quotes[s].viable) candidates.push_back(s);
          }
        }
        decision.preferred_shard = candidates.front();
        decision.preferred_heat = quotes[candidates.front()].heat;
        // Weight by spare capacity for this requirement; equal split when
        // nothing has headroom.
        std::vector<double> weights;
        double total_weight = 0.0;
        for (std::size_t s : candidates) {
          const double w = std::max(0.0, quotes[s].fit);
          weights.push_back(w);
          total_weight += w;
        }
        if (total_weight <= 0.0) {
          weights.assign(candidates.size(), 1.0);
          total_weight = static_cast<double>(candidates.size());
        }
        // Last-part remainder keeps Σ parts == requested exactly.
        cluster::TaskShape assigned;
        double assigned_limit = 0.0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
          const std::size_t s = candidates[i];
          const bool last = i + 1 == candidates.size();
          cluster::TaskShape part;
          double part_limit = 0.0;
          if (last) {
            part = fed.quantity - assigned;
            part_limit = fed.limit - assigned_limit;
          } else {
            const double frac = weights[i] / total_weight;
            part = fed.quantity * frac;
            part_limit = fed.limit * frac;
          }
          assigned += part;
          assigned_limit += part_limit;
          if (!HasPositiveQuantity(part) || !(part_limit > 0.0)) continue;
          decision.shards.push_back(s);
          result.routed.push_back(RoutedBid{
              s, fed.team,
              Materialize(quotes[s], s, fed, part, part_limit,
                          "#s" + std::to_string(i)),
              bid_index});
        }
        break;
      }
      case RoutingPolicy::kMirrored: {
        // The k cheapest shards each carry a full copy. A team may win in
        // several markets at once — mirroring is an availability hedge,
        // priced accordingly.
        std::vector<std::size_t> order;
        for (std::size_t s = 0; s < num_shards; ++s) {
          if (quotes[s].viable) order.push_back(s);
        }
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (quotes[a].reserve_cost != quotes[b].reserve_cost) {
                      return quotes[a].reserve_cost < quotes[b].reserve_cost;
                    }
                    return a < b;
                  });
        const std::size_t ways = std::min(kMirrorWays, order.size());
        decision.preferred_shard = order.front();
        decision.preferred_heat = quotes[order.front()].heat;
        for (std::size_t i = 0; i < ways; ++i) {
          const std::size_t s = order[i];
          decision.shards.push_back(s);
          result.routed.push_back(RoutedBid{
              s, fed.team,
              Materialize(quotes[s], s, fed, fed.quantity, fed.limit,
                          "#m" + std::to_string(i)),
              bid_index});
        }
        break;
      }
    }
    result.decisions.push_back(std::move(decision));
  }
  return result;
}

}  // namespace pm::federation
