#include "auction/fixed_price.h"

#include <algorithm>

#include "common/check.h"
#include "common/types.h"

namespace pm::auction {
namespace {

/// Cheapest bundle the user can afford at the fixed prices, or -1.
int PickAffordable(const bid::Bid& bid,
                   const std::vector<double>& prices) {
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t b = 0; b < bid.bundles.size(); ++b) {
    const double cost = bid.bundles[b].Dot(prices);
    if (best < 0 || cost < best_cost - kPriceEps) {
      best = static_cast<int>(b);
      best_cost = cost;
    }
  }
  if (best >= 0 && best_cost <= bid.limit + kPriceEps) return best;
  return -1;
}

/// Per-pool supply left after the served users' buy sides.
std::vector<double> Surplus(const std::vector<bid::Bid>& bids,
                            const std::vector<double>& supply,
                            const std::vector<int>& chosen) {
  std::vector<double> granted(supply.size(), 0.0);
  for (std::size_t u = 0; u < bids.size(); ++u) {
    if (chosen[u] < 0) continue;
    const bid::Bundle& bundle =
        bids[u].bundles[static_cast<std::size_t>(chosen[u])];
    for (const bid::BundleItem& item : bundle.items()) {
      if (item.qty > 0.0) granted[item.pool] += item.qty;
    }
  }
  std::vector<double> surplus(supply.size(), 0.0);
  for (std::size_t r = 0; r < supply.size(); ++r) {
    surplus[r] = std::max(0.0, supply[r] - granted[r]);
  }
  return surplus;
}

}  // namespace

FixedPriceResult AllocatePriorityOrder(
    const std::vector<bid::Bid>& bids, const std::vector<double>& supply,
    const std::vector<double>& fixed_prices,
    const std::vector<std::size_t>& priority) {
  PM_CHECK(supply.size() == fixed_prices.size());
  PM_CHECK_MSG(priority.size() == bids.size(),
               "priority must rank every bid");
  const std::string problem = bid::ValidateBids(bids, supply.size());
  PM_CHECK_MSG(problem.empty(), "invalid bid set: " << problem);

  FixedPriceResult result;
  result.chosen.assign(bids.size(), -1);
  std::vector<double> remaining = supply;

  for (std::size_t u : priority) {
    PM_CHECK_MSG(u < bids.size(), "priority index " << u << " out of range");
    const int pick = PickAffordable(bids[u], fixed_prices);
    if (pick < 0) continue;
    const bid::Bundle& bundle =
        bids[u].bundles[static_cast<std::size_t>(pick)];
    bool fits = true;
    for (const bid::BundleItem& item : bundle.items()) {
      if (item.qty > 0.0 && item.qty > remaining[item.pool] + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;  // Shortage for this user; they get nothing.
    for (const bid::BundleItem& item : bundle.items()) {
      remaining[item.pool] -= item.qty;
    }
    result.chosen[u] = pick;
    result.operator_revenue += bundle.Dot(fixed_prices);
  }
  // Shortage mass: what unserved users who could afford their cheapest
  // bundle at the fixed prices wanted but could not get. A user priced
  // out by the fixed price is not a shortage, it is disinterest.
  result.surplus = Surplus(bids, supply, result.chosen);
  result.shortage.assign(supply.size(), 0.0);
  for (std::size_t u = 0; u < bids.size(); ++u) {
    if (result.chosen[u] >= 0) continue;
    const int pick = PickAffordable(bids[u], fixed_prices);
    if (pick < 0) continue;
    const bid::Bundle& bundle =
        bids[u].bundles[static_cast<std::size_t>(pick)];
    for (const bid::BundleItem& item : bundle.items()) {
      if (item.qty > 0.0) result.shortage[item.pool] += item.qty;
    }
  }
  return result;
}

}  // namespace pm::auction
