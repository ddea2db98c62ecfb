#include "federation/arbitrage.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "stats/descriptive.h"

namespace pm::federation {
namespace {

/// Kinds indexed 0..kNumResourceKinds-1 (matches the enum values).
std::size_t KindIndex(ResourceKind kind) {
  return static_cast<std::size_t>(kind);
}

constexpr char kTeam[] = "fed/arbitrage";

/// Buy limit = qty × clearing price × kBuyMarkup.
constexpr double kBuyMarkup = 1.10;

/// Sell ask = qty × clearing price × kSellMarkdown (the uniform price
/// still pays at least the ask when the offer settles).
constexpr double kSellMarkdown = 0.90;

/// Fraction of a sellable holding released per epoch. Dumping a whole
/// warehouse at once crashes the receiving shard's prices and re-opens
/// the spread from the other side; metering the release keeps the
/// correction one-sided.
constexpr double kSellFraction = 0.35;

/// Sells require the shard's price ≥ this fraction of the cross-shard
/// mean for the kind. 1.0 releases only in above-average shards (most
/// convergent); slightly below 1.0 lets profits realize near the mean
/// at negligible spread cost.
constexpr double kSellGateFraction = 0.9;

/// Trades below this many units are not worth placing.
constexpr double kMinTradeUnits = 1.0;

}  // namespace

ArbitrageAgent::ArbitrageAgent(ArbitrageConfig config)
    : config_(std::move(config)) {
  PM_CHECK_MSG(config_.min_spread > 0.0 && config_.min_margin >= 0.0,
               "arbitrage thresholds must be positive");
  PM_CHECK_MSG(config_.buy_fraction > 0.0 && config_.buy_fraction <= 1.0,
               "buy_fraction must be in (0, 1]");
}

std::string ArbitrageAgent::team() const { return kTeam; }

double ArbitrageAgent::KindPrice(const exchange::AuctionReport& report,
                                 const PoolRegistry& registry,
                                 const std::vector<double>& capacity,
                                 ResourceKind kind) {
  std::vector<double> prices;
  const std::size_t limit =
      std::min(report.settled_prices.size(),
               std::min(capacity.size(), registry.size()));
  for (PoolId r = 0; r < limit; ++r) {
    if (registry.KeyOf(r).kind != kind) continue;
    if (capacity[r] <= 0.0) continue;  // Extracted clusters price nothing.
    prices.push_back(report.settled_prices[r]);
  }
  if (prices.empty()) return std::numeric_limits<double>::quiet_NaN();
  return stats::Median(prices);
}

double ComputeClearingSpread(
    const FederationReport& report,
    const std::vector<const cluster::Fleet*>& fleets) {
  PM_CHECK(report.shards.size() == fleets.size());
  std::vector<std::vector<double>> capacities;
  capacities.reserve(fleets.size());
  for (const cluster::Fleet* fleet : fleets) {
    capacities.push_back(fleet->CapacityVector());
  }
  double total = 0.0;
  int kinds = 0;
  for (ResourceKind kind : kAllResourceKinds) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    int priced = 0;
    for (std::size_t k = 0; k < report.shards.size(); ++k) {
      const double p = ArbitrageAgent::KindPrice(
          report.shards[k].report, fleets[k]->registry(), capacities[k],
          kind);
      if (std::isnan(p) || p <= 0.0) continue;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
      ++priced;
    }
    if (priced < 2) continue;
    total += (hi - lo) / lo;
    ++kinds;
  }
  return kinds > 0 ? total / kinds : 0.0;
}

std::vector<ArbitragePlan> ArbitrageAgent::PlanEpoch(
    const FederationReport* prev, const std::vector<ShardView>& views,
    const std::vector<const cluster::Fleet*>& fleets, int epoch) {
  PM_CHECK(views.size() == fleets.size());
  if (holdings_.size() < views.size()) holdings_.resize(views.size());
  last_plans_.clear();
  if (prev == nullptr || prev->shards.size() != views.size()) {
    // First epoch (or the shard set changed shape): no price signal yet.
    return last_plans_;
  }

  // Per-(shard, kind) clearing-price signals from the previous epoch.
  std::vector<std::array<double, kNumResourceKinds>> signal(views.size());
  for (std::size_t k = 0; k < views.size(); ++k) {
    const std::vector<double> capacity = fleets[k]->CapacityVector();
    for (ResourceKind kind : kAllResourceKinds) {
      signal[k][KindIndex(kind)] = KindPrice(
          prev->shards[k].report, fleets[k]->registry(), capacity, kind);
    }
  }

  // Cross-shard mean price per kind: the sell-side reference. Selling is
  // only price-convergent in shards quoting ABOVE the mean — releasing
  // capacity into a below-mean shard would push its price further down
  // and re-open the spread from the other side.
  std::array<double, kNumResourceKinds> kind_mean;
  for (ResourceKind kind : kAllResourceKinds) {
    double total = 0.0;
    int priced = 0;
    for (std::size_t k = 0; k < views.size(); ++k) {
      const double p = signal[k][KindIndex(kind)];
      if (std::isnan(p) || p <= 0.0) continue;
      total += p;
      ++priced;
    }
    kind_mean[KindIndex(kind)] =
        priced > 0 ? total / priced
                   : std::numeric_limits<double>::quiet_NaN();
  }

  // Mark the warehouse to this epoch's price signal. Unpriced kinds carry
  // at basis (zero unrealized).
  {
    double mark = 0.0;
    for (std::size_t k = 0; k < holdings_.size(); ++k) {
      std::vector<PoolId> held;
      held.reserve(holdings_[k].size());
      for (const auto& [pool, holding] : holdings_[k]) {
        held.push_back(pool);
      }
      std::sort(held.begin(), held.end());  // Deterministic FP order.
      for (const PoolId pool : held) {
        const Holding& holding = holdings_[k].at(pool);
        if (k >= views.size() || pool >= fleets[k]->registry().size()) {
          continue;
        }
        const ResourceKind kind = fleets[k]->registry().KeyOf(pool).kind;
        const double price = signal[k][KindIndex(kind)];
        if (std::isnan(price) || price <= 0.0) continue;
        mark += holding.units * (price - holding.basis);
      }
    }
    mark_to_market_ = mark;
  }

  // Buy targets first (the decision, not yet the bids): per kind, the
  // cheapest shard when the cross-shard spread clears min_spread.
  std::array<std::size_t, kNumResourceKinds> buy_target;
  std::array<double, kNumResourceKinds> buy_spread;
  buy_target.fill(views.size());
  buy_spread.fill(0.0);
  for (ResourceKind kind : kAllResourceKinds) {
    std::size_t cheap = views.size(), dear = views.size();
    for (std::size_t k = 0; k < views.size(); ++k) {
      const double p = signal[k][KindIndex(kind)];
      if (std::isnan(p) || p <= 0.0) continue;
      if (cheap == views.size() || p < signal[cheap][KindIndex(kind)]) {
        cheap = k;
      }
      if (dear == views.size() || p > signal[dear][KindIndex(kind)]) {
        dear = k;
      }
    }
    if (cheap == views.size() || dear == views.size() || cheap == dear) {
      continue;
    }
    const double price_cheap = signal[cheap][KindIndex(kind)];
    const double price_dear = signal[dear][KindIndex(kind)];
    const double spread = (price_dear - price_cheap) / price_cheap;
    if (spread < config_.min_spread) continue;
    buy_target[KindIndex(kind)] = cheap;
    buy_spread[KindIndex(kind)] = spread;
  }

  // Sells: release warehoused capacity where the local price has risen
  // past cost basis × (1 + min_margin) AND sits above the planet mean
  // for the kind. One sell bid per shard, bundling every pool that
  // clears both bars (ask = Σ qty·price·markdown). A shard being bought
  // this epoch is deliberately NOT excluded: the simultaneous sell leg
  // turns over old inventory at its locked-in margin while the buy
  // restocks at the current price — a market-maker stance whose
  // measured effect (bench/arbitrage_spread.cpp) is to damp the agent's
  // own buy-side overshoot; suppressing it makes the spread series
  // oscillate.
  for (std::size_t k = 0; k < views.size(); ++k) {
    std::vector<bid::BundleItem> items;
    double ask = 0.0;
    // Pool order is interning order: deterministic.
    std::vector<PoolId> held;
    held.reserve(holdings_[k].size());
    for (const auto& [pool, holding] : holdings_[k]) held.push_back(pool);
    std::sort(held.begin(), held.end());
    for (const PoolId pool : held) {
      const Holding& holding = holdings_[k].at(pool);
      double qty = holding.units * kSellFraction;
      // Geometric metering alone would strand the tail of every holding
      // below kMinTradeUnits/kSellFraction forever; once the metered
      // slice falls under the floor, drain the whole position instead.
      if (qty < kMinTradeUnits) qty = holding.units;
      if (qty < kMinTradeUnits) continue;
      const ResourceKind kind = fleets[k]->registry().KeyOf(pool).kind;
      const double price = signal[k][KindIndex(kind)];
      if (std::isnan(price) || price <= 0.0) continue;
      if (price < holding.basis * (1.0 + config_.min_margin)) continue;
      if (price < kind_mean[KindIndex(kind)] * kSellGateFraction) continue;
      items.push_back(bid::BundleItem{pool, -qty});
      ask += qty * price * kSellMarkdown;
    }
    if (items.empty()) continue;
    ArbitragePlan plan;
    plan.shard = k;
    plan.is_buy = false;
    for (const bid::BundleItem& item : items) plan.qty += -item.qty;
    plan.bid.name = std::string(kTeam) + "/arb-sell-e" +
                    std::to_string(epoch) + "-s" + std::to_string(k);
    plan.bid.bundles.emplace_back(std::move(items));
    plan.bid.limit = -std::max(ask, 1.0);
    last_plans_.push_back(std::move(plan));
  }

  // Buys: materialize the targets chosen above (lowest shard/pool index
  // wins ties).
  for (ResourceKind kind : kAllResourceKinds) {
    const std::size_t cheap = buy_target[KindIndex(kind)];
    if (cheap == views.size()) continue;
    const double price_cheap = signal[cheap][KindIndex(kind)];
    const double spread = buy_spread[KindIndex(kind)];

    // Buy a slice of EVERY pool of the kind in the cheap shard (one
    // bundle, pools in interning order): a single-pool purchase would
    // barely move the shard's median price signal, but lifting the whole
    // kind's utilization moves the congestion-weighted reserves that the
    // next epoch clears against.
    const ShardView& view = views[cheap];
    std::vector<bid::BundleItem> items;
    double total_qty = 0.0;
    // Impact control: trade size shrinks with the remaining spread, so
    // the correction tapers instead of overshooting (the price signal
    // lags one epoch — full-size trades near convergence ping-pong).
    const double fraction = config_.buy_fraction * std::min(1.0, spread);
    for (const PoolId pool : view.registry->PoolsOfKind(kind)) {
      if (pool >= view.free_capacity.size()) continue;
      const double qty = view.free_capacity[pool] * fraction;
      if (qty < kMinTradeUnits) continue;
      items.push_back(bid::BundleItem{pool, qty});
      total_qty += qty;
    }
    if (items.empty()) continue;

    ArbitragePlan plan;
    plan.shard = cheap;
    plan.is_buy = true;
    plan.qty = total_qty;
    plan.bid.name = std::string(kTeam) + "/arb-buy-e" + std::to_string(epoch) +
                    "-" + std::string(pm::ToString(kind));
    plan.bid.bundles.emplace_back(std::move(items));
    plan.bid.limit = total_qty * price_cheap * kBuyMarkup;
    // Fund the limit (rounded up a dollar) so the budget gate never
    // clamps the bid below what was planned.
    plan.funding =
        Money::FromDollarsRounded(plan.bid.limit) + Money::FromDollars(1);
    last_plans_.push_back(std::move(plan));
  }
  return last_plans_;
}

void ArbitrageAgent::ObserveEpoch(const FederationReport& report) {
  if (holdings_.size() < report.shards.size()) {
    holdings_.resize(report.shards.size());
  }
  for (const ArbitragePlan& plan : last_plans_) {
    if (plan.shard >= report.shards.size()) continue;
    const exchange::AuctionReport& shard = report.shards[plan.shard].report;
    for (const exchange::AwardRecord& award : shard.awards) {
      if (award.team != kTeam) continue;
      if (award.bid_name != plan.bid.name) continue;
      if (plan.is_buy && config_.outcome_aware) {
        // Exact physical backing: only the units the bin-packer landed
        // enter the warehouse, at cost net of the unplaced-unit refund.
        const exchange::PlacementOutcome& outcome = award.outcome;
        if (outcome.placed_units <= 0.0) continue;
        const double paid =
            std::max(0.0, std::abs(award.payment) - outcome.refund);
        const double per_unit = paid / outcome.placed_units;
        for (const exchange::PoolFill& fill : outcome.fills) {
          if (fill.placed <= 0.0) continue;
          Holding& holding = holdings_[plan.shard][fill.pool];
          const double total = holding.units + fill.placed;
          holding.basis = (holding.basis * holding.units +
                           per_unit * fill.placed) /
                          total;
          holding.units = total;
        }
        continue;
      }
      // award.payment covers the whole bundle; spread it over the items
      // in proportion to quantity (pools of one kind clear near one
      // another, and the warehouse basis is bookkeeping, not settlement).
      const bid::Bundle& bundle = plan.bid.bundles.front();
      double bundle_qty = 0.0;
      for (const bid::BundleItem& item : bundle.items()) {
        bundle_qty += std::abs(item.qty);
      }
      if (bundle_qty <= 0.0) continue;
      const double per_unit = std::abs(award.payment) / bundle_qty;
      for (const bid::BundleItem& item : bundle.items()) {
        Holding& holding = holdings_[plan.shard][item.pool];
        if (plan.is_buy) {
          const double total = holding.units + item.qty;
          if (total > 0.0) {
            holding.basis = (holding.basis * holding.units +
                             per_unit * item.qty) /
                            total;
          }
          holding.units = total;
        } else {
          const double sold = -item.qty;  // Sell items are negative.
          const double covered = std::min(holding.units, sold);
          // Sellers receive money: per_unit × sold is this item's share
          // of the (negative) payment.
          realized_pnl_ += per_unit * sold - holding.basis * covered;
          holding.units = std::max(0.0, holding.units - sold);
        }
      }
    }
  }
  // Drop emptied holdings so sell planning stays proportional to the
  // live warehouse.
  for (auto& shard_holdings : holdings_) {
    for (auto it = shard_holdings.begin(); it != shard_holdings.end();) {
      if (it->second.units <= 1e-9) {
        it = shard_holdings.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ArbitrageAgent::SeedHoldingsForTest(std::size_t shard, PoolId pool,
                                         double units, double basis) {
  if (holdings_.size() <= shard) holdings_.resize(shard + 1);
  holdings_[shard][pool] = Holding{units, basis};
}

void ArbitrageAgent::OnClusterMigrated(
    std::size_t from_shard, std::size_t to_shard,
    const std::vector<std::pair<PoolId, PoolId>>& pool_map) {
  if (from_shard >= holdings_.size()) return;
  if (holdings_.size() <= to_shard) holdings_.resize(to_shard + 1);
  for (const auto& [from_pool, to_pool] : pool_map) {
    auto it = holdings_[from_shard].find(from_pool);
    if (it == holdings_[from_shard].end()) continue;
    Holding& dst = holdings_[to_shard][to_pool];
    const double total = dst.units + it->second.units;
    if (total > 0.0) {
      dst.basis = (dst.basis * dst.units +
                   it->second.basis * it->second.units) /
                  total;
    }
    dst.units = total;
    holdings_[from_shard].erase(it);
  }
}

double ArbitrageAgent::HoldingsUnits(std::size_t shard) const {
  if (shard >= holdings_.size()) return 0.0;
  double units = 0.0;
  for (const auto& [pool, holding] : holdings_[shard]) {
    units += holding.units;
  }
  return units;
}

double ArbitrageAgent::TotalHoldingsUnits() const {
  double units = 0.0;
  for (std::size_t k = 0; k < holdings_.size(); ++k) {
    units += HoldingsUnits(k);
  }
  return units;
}

}  // namespace pm::federation
